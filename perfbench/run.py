"""mpcg benchmark: one command, three workloads, end-to-end or traced.

    python3 perfbench/run.py --workload desk-pipeline --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run sets up several times, repeats the timed round
until its timed parts add up to ``--seconds``, times the use stage, checks every output
and prints the end-to-end metrics; solve times and the large round are
at the reference pace of ``pace``, and a log line gives the raw seconds.
With ``--trace 1`` it sets up once, runs one untraced round, then one
round under the span tracer, and prints the per-layer metrics of the
traced round.  The last line of standard output is the JSON result.
Work files go to ``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks as ck
import pace
import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOADS = ("desk-pipeline", "desk-label-2w", "large-auto-solve")
PACED = ("wall_s", "two_stage_s", "binary64_s")  # reported at the reference pace


def import_package():
    """Import mpcg from this checkout's ``src``, and nowhere else."""
    sys.path.insert(0, str(SRC))
    import mpcg  # noqa: PLC0415
    import mpcg.cli  # noqa: F401, PLC0415

    if SRC.resolve() not in Path(mpcg.__file__).resolve().parents:
        raise ImportError(f"mpcg was imported from {mpcg.__file__}, not from {SRC}")
    return mpcg


def make_workload(mpcg, name: str):
    if name == "desk-pipeline":
        return wl.DeskWorkload(mpcg, wl.DeskConfig(workers=1, pipeline=True))
    if name == "desk-label-2w":
        return wl.DeskWorkload(mpcg, wl.DeskConfig(workers=2, pipeline=False))
    return wl.LargeWorkload(mpcg, wl.LargeConfig())


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for
    (labelling workers, start-up probes); Linux reports KiB."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


def recorded_iterations(sample: Path) -> int:
    total = 0
    with open(sample, encoding="ascii") as fh:
        for line in fh:
            total += sum(c["n1"] + c["n2"] for c in json.loads(line)["costs"])
    return total


def run(mpcg, workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One untraced or traced run of ``workload``; returns the result line."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    setup_times, import_times = [], []
    for k in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.import_probe(SRC)
        import_times.append(time.perf_counter() - t0)
        ctx = workload.setup(work / f"setup{k}", seed)
        setup_times.append(time.perf_counter() - t0)

    rounds = []
    spans = None
    if trace:
        rounds.append(workload.round(ctx, work / "round0"))
        tracer = tracing.Tracer(work / "trace")
        tracer.install(mpcg)
        try:
            with tracer.phase("round"):
                rounds.append(workload.round(ctx, work / "round1"))
        finally:
            tracer.uninstall()
        tracer.collect_workers()
        spans = tracer.spans()
        spans.save(work / "trace" / "spans.npz")
        use = workload.use(ctx, rounds[-1], traced=True)
    else:
        measured = 0.0
        while measured < seconds or not rounds:
            rounds.append(workload.round(ctx, work / f"round{len(rounds)}"))
            measured += rounds[-1]["raw"]["wall_s"]
        use = workload.use(ctx, rounds[-1], traced=False)

    peak_mb = peak_rss_mb()  # before the checks, whose dense copies vary with the seed
    chk = ck.Checks()
    attempted, failed = workload.check(ctx, rounds, use, seed, chk)
    print(f"checks: {chk.passed} passed, {len(chk.failures)} failed")

    if trace:
        metrics = tracing.layer_metrics(spans)
        metrics["dataset.recorded_iterations"] = (
            float(recorded_iterations(workload.model_sample(ctx, rounds))), "count")
        metrics["cli.import_s"] = (import_times[0], "s")
        metrics["trace.overhead_s"] = (rounds[1]["raw"]["wall_s"] - rounds[0]["raw"]["wall_s"], "s")
    else:
        parts = rounds + ([use] if "raw" in use else [])
        raw = {k: statistics.mean(p["raw"][k] for p in parts if k in p["raw"]) for k in PACED}
        slowness = [s for p in parts for s in p["slowness"]]
        print(f"raw seconds (means): {json.dumps(raw)}, slowness {statistics.mean(slowness):.4f}")
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "knn_cost_ratio": (use["knn_cost_ratio"], "N_kNN/N_Wrst"),
            **{k: (pace.paced(parts, k), "s") for k in PACED},
        }
    return {
        "correct": chk.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        mpcg = import_package()
    except ImportError as exc:
        print(f"error: cannot import the package under {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = make_workload(mpcg, args.workload)
    work = ROOT / ".perfbench_work" / args.workload
    result = run(mpcg, workload, args.seed, args.seconds, bool(args.trace), work)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
