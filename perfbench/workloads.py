"""The benchmark's workloads.

Each workload has a set-up, a timed round that is repeated for the run
length, and a use stage that times two-stage solves at the kNN-predicted
eps1 against pure binary64 CG on the workload's own systems.  ``check``
verifies the outputs with ``checks`` and returns (attempted, failed) of
one round.  Rounds and use stages return their raw times under ``raw``
and the host slowness of calibration samples taken beside them under
``slowness`` (see ``pace``); ``run`` turns the two into reported times.

The desk workloads always run the fixed desk sample (``generate --count 520
--seed 42``), whose three failing records do not depend on the benchmark
seed; the seed picks the records that the output checks recompute.  The
large workload writes its matrices from the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks as ck
from pace import Pace

EPS2 = 1e-10
MU = 0.5
REFERENCE_SHA256 = "064ea97f707cf7349ce5976dfd9f13bbe7bbc6d9e46ca9b45cd7efae2474fbdc"
TRAIN_ARGS = ["--k", "5", "--seed", "3", "--record-split"]
TREE_FAMILIES = ("path", "tree_random", "star")
DESK_SPEC_SEED = 42  # generate --seed of the desk sample and of large's model sample
LARGE_DELTA_RANGE = (0.001, 0.01)  # thin dominance margins
POWER_ITERATIONS = 30


def run_cli(mpcg, argv: list[str], log: Path) -> None:
    """``mpcg <argv>`` in-process; its standard output goes to ``log``."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = mpcg.cli.main(argv)
    with open(log, "a", encoding="utf-8") as fh:
        fh.write(f"$ mpcg {' '.join(argv)}\n{out.getvalue()}")
    if code != 0:
        raise RuntimeError(f"mpcg {' '.join(argv)} exited with code {code}")


def train_evaluate(mpcg, sample: Path, model: Path, report: Path, log: Path) -> None:
    """``mpcg train`` with the desk flags, then ``mpcg evaluate`` of its split."""
    run_cli(mpcg, ["train", "--sample", str(sample), "--out", str(model), *TRAIN_ARGS], log)
    run_cli(
        mpcg,
        ["evaluate", "--sample", str(sample), "--model", str(model), "--out", str(report)],
        log,
    )


def import_probe(src: Path) -> None:
    """Start a fresh interpreter that imports the command-line module, as
    every ``mpcg`` invocation does."""
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run(
        [sys.executable, "-c", "import mpcg.cli"], env=env, check=True, timeout=120
    )


def read_specs(mpcg, path: Path) -> list:
    with open(path, encoding="ascii") as fh:
        return [mpcg.dataset.GraphSpec.from_dict(json.loads(l)) for l in fh if l.strip()]


def desk_matrices(mpcg, specs, wanted: set[str]) -> dict[str, tuple]:
    """Regenerate the matrices named in ``wanted`` from their specs, with the
    ids ``build_sample`` gives them: ``s<index>`` for a structured spec,
    ``g<index>b`` and ``g<index>v<k>`` for a perturbation group."""
    ds = mpcg.dataset
    out = {}
    for i, spec in enumerate(specs):
        if spec.variants == 0:
            mid = f"s{i:05d}"
            if mid in wanted:
                out[mid] = (ds.generate(spec), mid, spec)
            continue
        gid = f"g{i:05d}"
        ids = [f"{gid}b"] + [f"{gid}v{v:02d}" for v in range(spec.variants)]
        if not wanted.intersection(ids):
            continue
        base = ds.generate(spec)
        mats = [base] + ds.perturb(
            base,
            spec.variants,
            spec.edges_to_add,
            seed=spec.seed,
            diagonal_strategy=spec.diagonal_strategy,
            delta_range=spec.delta_range,
            constant=spec.constant,
        )
        for mid, M in zip(ids, mats):
            if mid in wanted:
                out[mid] = (M, gid, spec)
    return out


def auto_eps1(mpcg, matrix: Path, model_path: Path):
    """The steps ``mpcg solve FILE --eps1 auto --model M`` takes before it
    solves: read, right-hand side A*1, model, features, kNN class.
    Returns (A, b, class, eps1)."""
    cli = mpcg.cli
    A = cli.read_matrix_market(matrix)
    b = cli.dataset.ones_rhs(A)
    model = cli.regression.load_model(model_path)
    label = cli.regression.knn_predict(model, cli.extract_features(A))
    return A, b, label, model.grid_values[label - 1]


def two_stage(mpcg, A, b, eps1):
    return mpcg.cli.two_stage_solve(A, b, eps1, EPS2, MU)


def binary64_solve(mpcg, A, b):
    solver = mpcg.solver
    config = solver.no_stagnation(solver.SolveConfig(tolerance=EPS2))
    return solver.cg(A, b, None, config)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class DeskConfig:
    count: int = 520
    workers: int = 1
    pipeline: bool = True  # all four subcommands timed; otherwise label only
    check_records: int = 8
    solve_repeats: int = 10


class DeskWorkload:
    """``mpcg generate -> label -> train -> evaluate`` on the desk specs, or
    ``label`` alone with several workers."""

    def __init__(self, mpcg, config: DeskConfig):
        self.mpcg = mpcg
        self.cfg = config
        self.pace = Pace("small")

    def _generate(self, out: Path, log: Path) -> None:
        run_cli(
            self.mpcg,
            ["generate", "--out", str(out), "--count", str(self.cfg.count),
             "--seed", str(DESK_SPEC_SEED)],
            log,
        )

    def setup(self, work: Path, seed: int) -> dict:
        work.mkdir(parents=True)
        specs = None
        if not self.cfg.pipeline:
            specs = work / "specs.jsonl"
            self._generate(specs, work / "log.txt")
        return {"specs": specs}

    def round(self, ctx: dict, rdir: Path) -> dict:
        rdir.mkdir(parents=True)
        log = rdir / "log.txt"
        specs = ctx["specs"] or rdir / "specs.jsonl"
        sample, model, report = rdir / "sample.jsonl", rdir / "model.json", rdir / "report.json"
        t0 = time.perf_counter()
        if self.cfg.pipeline:
            self._generate(specs, log)
        run_cli(
            self.mpcg,
            ["label", "--specs", str(specs), "--out", str(sample),
             "--threads", str(self.cfg.workers)],
            log,
        )
        if self.cfg.pipeline:
            train_evaluate(self.mpcg, sample, model, report, log)
        wall = time.perf_counter() - t0
        # One call of 15-30 s, which no sample can interleave: its raw time
        # averages the drift itself, and samples before and after it only
        # add their own noise.
        return {"raw": {"wall_s": wall}, "slowness": [], "dir": rdir,
                "specs": specs, "sample": sample, "model": model, "report": report}

    def use(self, ctx: dict, rnd: dict, traced: bool) -> dict:
        """Solve the model's held-out matrices along the ``solve --eps1 auto``
        path; two-stage and binary64 times are summed per pass and averaged
        over the passes.  A calibration sample is taken before every pass
        and after the last.  After a traced round the systems are solved
        once, for the checks."""
        mpcg, log = self.mpcg, rnd["dir"] / "log.txt"
        if not rnd["model"].exists():
            train_evaluate(mpcg, rnd["sample"], rnd["model"], rnd["report"], log)
        with open(rnd["model"], encoding="ascii") as fh:
            test_ids = json.load(fh)["test_ids"]
        with open(rnd["report"], encoding="ascii") as fh:
            ratio = json.load(fh)["ratio_knn_wrst"]
        mats = desk_matrices(mpcg, read_specs(mpcg, rnd["specs"]), set(test_ids))
        tdir = rnd["dir"] / "test"
        tdir.mkdir()
        solves = []
        for mid in test_ids:
            path = tdir / f"{mid}.mtx"
            mpcg.sparse.write_matrix_market(mats[mid][0], path)
            solves.append((mid, *auto_eps1(mpcg, path, rnd["model"])))
        passes = 1 if traced else self.cfg.solve_repeats
        t_two = t_b64 = 0.0
        slowness = []
        for _ in range(passes):
            slowness.append(self.pace.sample())
            results = []
            for mid, A, b, label, eps1 in solves:
                t0 = time.perf_counter()
                r2 = two_stage(mpcg, A, b, eps1)
                t1 = time.perf_counter()
                r64 = binary64_solve(mpcg, A, b)
                t_two += t1 - t0
                t_b64 += time.perf_counter() - t1
                results.append((mid, A, b, label, r2, r64))
        slowness.append(self.pace.sample())
        return {"raw": {"two_stage_s": t_two / passes, "binary64_s": t_b64 / passes},
                "slowness": slowness, "knn_cost_ratio": ratio, "solves": results}

    def check(self, ctx: dict, rounds: list[dict], use: dict, seed: int, chk: ck.Checks) -> tuple[int, int]:
        """One operation is one matrix; an invalid record or a missing one
        counts as failed.  The counts are those of one round, so they do not
        depend on how many rounds fit in the run; every round must give the
        same counts and the same sample bytes."""
        mpcg = self.mpcg
        outcomes = []
        for rnd in rounds:
            planned = sum(1 + s.variants for s in read_specs(mpcg, rnd["specs"]))
            lines = rnd["sample"].read_text(encoding="ascii").splitlines()
            valid = ck.check_sample_records(chk, lines, mpcg.dataset.DEFAULT_GRID, MU)
            digest = sha256(rnd["sample"])
            outcomes.append((planned, planned - valid, digest))
            note = " (the ROADMAP desk reference)" if digest == REFERENCE_SHA256 else ""
            print(f"sample sha256 {digest}{note}, {valid}/{planned} records valid")
        chk.expect(len(set(outcomes)) == 1, "counts or sample bytes differ between rounds")
        attempted, failed, _ = outcomes[-1]

        last = rounds[-1]
        lines = last["sample"].read_text(encoding="ascii").splitlines()
        records = {json.loads(l)["matrix_id"]: l for l in lines}
        parsed = {mid: json.loads(l) for mid, l in records.items()}
        with open(last["model"], encoding="ascii") as fh:
            test_ids = json.load(fh)["test_ids"]
        with open(last["report"], encoding="ascii") as fh:
            report = json.load(fh)
        ck.check_report(chk, report, parsed, test_ids)

        rng = np.random.default_rng(seed)
        trees = sorted(
            mid for mid, r in parsed.items()
            if r["spec"]["variants"] == 0 and r["spec"]["family"] in TREE_FAMILIES
        )
        others = sorted(set(parsed) - set(trees))
        k_tree = min(len(trees), max(1, self.cfg.check_records * 3 // 8))
        k_other = min(len(others), self.cfg.check_records - k_tree)
        picked = [str(m) for m in rng.choice(trees, k_tree, replace=False)]
        picked += [str(m) for m in rng.choice(others, k_other, replace=False)]
        mats = desk_matrices(mpcg, read_specs(mpcg, last["specs"]), set(picked))
        grid = mpcg.dataset.EpsilonGrid(mpcg.dataset.DEFAULT_GRID, EPS2, MU)
        config = mpcg.solver.SolveConfig(tolerance=EPS2)
        for mid in picked:
            A, gid, spec = mats[mid]
            hull = mpcg.features.eigen_estimates(A).combined
            ck.check_matrix_features(chk, mid, A, parsed[mid], hull)
            again = mpcg.dataset.label_matrix(A, mpcg.dataset.ones_rhs(A), grid, config, mid, gid, spec)
            chk.expect(
                json.dumps(again.to_dict(), sort_keys=True) == records[mid],
                f"{mid}: labelling in one process does not reproduce the sample record",
            )

        predicted = {row["matrix_id"]: row["predicted_label"] for row in report["rows"]}
        for mid, A, b, label, r2, r64 in use["solves"]:
            chk.expect(predicted.get(mid) == label, f"{mid}: solve --eps1 auto picks another class than evaluate")
            ck.check_solution(chk, A, b, r2.x, EPS2, f"{mid} two-stage")
            chk.expect(r64.status == "converged", f"{mid}: binary64 CG ended '{r64.status}'")
            ck.check_solution(chk, A, b, r64.x, EPS2, f"{mid} binary64")
        return attempted, failed

    def model_sample(self, ctx: dict, rounds: list[dict]) -> Path:
        return rounds[-1]["sample"]


@dataclass
class LargeConfig:
    files: tuple = (("grid2d", 100000), ("tree_random", 100000))
    model_count: int = 30


class LargeWorkload:
    """``solve FILE --eps1 auto --model M`` on large Matrix Market files, then
    pure binary64 CG on the same systems; the model is fitted in set-up on
    a small desk sample that the program labels."""

    def __init__(self, mpcg, config: LargeConfig):
        self.mpcg = mpcg
        self.cfg = config
        self.pace = Pace("large")

    def setup(self, work: Path, seed: int) -> dict:
        mpcg = self.mpcg
        work.mkdir(parents=True)
        log = work / "log.txt"
        specs, sample = work / "specs.jsonl", work / "sample.jsonl"
        model, report = work / "model.json", work / "report.json"
        run_cli(mpcg, ["generate", "--out", str(specs), "--count", str(self.cfg.model_count),
                       "--seed", str(DESK_SPEC_SEED)], log)
        run_cli(mpcg, ["label", "--specs", str(specs), "--out", str(sample)], log)
        train_evaluate(mpcg, sample, model, report, log)
        matrices = []
        for i, (family, n) in enumerate(self.cfg.files):
            spec_seed = int(np.random.SeedSequence([seed, i]).generate_state(1)[0])
            spec = mpcg.dataset.GraphSpec(family, n, seed=spec_seed, delta_range=LARGE_DELTA_RANGE)
            path = work / f"{family}-{n}.mtx"
            mpcg.sparse.write_matrix_market(mpcg.dataset.generate(spec), path)
            matrices.append(path)
        return {"matrices": matrices, "sample": sample, "model": model, "report": report}

    def round(self, ctx: dict, rdir: Path) -> dict:
        mpcg = self.mpcg
        errors = (
            mpcg.errors.Stage2NotConvergedError,
            mpcg.errors.CgBreakdownError,
            mpcg.errors.SinglePrecisionOverflowError,
        )
        ctx["outputs"] = None  # free the previous round's systems first
        wall = two = b64 = 0.0
        failed = 0
        outputs = []
        slowness = [self.pace.sample()]  # before each file and after each step
        for path in ctx["matrices"]:
            t0 = time.perf_counter()
            A, b, label, eps1 = auto_eps1(mpcg, path, ctx["model"])
            t_auto = time.perf_counter() - t0
            slowness.append(self.pace.sample())
            t1 = time.perf_counter()
            try:
                r2 = two_stage(mpcg, A, b, eps1)
            except errors as exc:
                print(f"{path.name}: two-stage solve failed: {exc}", file=sys.stderr)
                r2 = None
            t_two = time.perf_counter() - t1
            slowness.append(self.pace.sample())
            t2 = time.perf_counter()
            try:
                r64 = binary64_solve(mpcg, A, b)
            except errors as exc:
                print(f"{path.name}: binary64 CG failed: {exc}", file=sys.stderr)
                r64 = None
            t_b64 = time.perf_counter() - t2
            slowness.append(self.pace.sample())
            failed += r2 is None or r64 is None or r64.status != "converged"
            wall += t_auto + t_two
            two += t_two
            b64 += t_b64
            outputs.append((path.name, A, b, label, r2, r64))
        ctx["outputs"] = outputs
        iterations = [
            ((r2.n1, r2.n2) if r2 else None, r64.iterations if r64 else None)
            for *_, r2, r64 in outputs
        ]
        return {"raw": {"wall_s": wall, "two_stage_s": two, "binary64_s": b64},
                "slowness": slowness, "failed": failed, "iterations": iterations}

    def use(self, ctx: dict, rnd: dict, traced: bool) -> dict:
        """The solves are part of each round; the use stage only reads the
        score of the set-up model on its held-out records."""
        with open(ctx["report"], encoding="ascii") as fh:
            return {"knn_cost_ratio": json.load(fh)["ratio_knn_wrst"]}

    def check(self, ctx: dict, rounds: list[dict], use: dict, seed: int, chk: ck.Checks) -> tuple[int, int]:
        """One operation is one file: its two-stage and its binary64 solve.
        The counts are those of one round; every round must agree."""
        mpcg = self.mpcg
        lines = ctx["sample"].read_text(encoding="ascii").splitlines()
        ck.check_sample_records(chk, lines, mpcg.dataset.DEFAULT_GRID, MU)
        with open(ctx["model"], encoding="ascii") as fh:
            test_ids = json.load(fh)["test_ids"]
        with open(ctx["report"], encoding="ascii") as fh:
            report = json.load(fh)
        ck.check_report(chk, report, {json.loads(l)["matrix_id"]: json.loads(l) for l in lines}, test_ids)

        chk.expect(
            all((r["iterations"], r["failed"]) == (rounds[0]["iterations"], rounds[0]["failed"])
                for r in rounds),
            "iteration or failure counts differ between rounds",
        )
        for name, A, b, label, r2, r64 in ctx["outputs"]:
            chk.expect(1 <= label <= len(mpcg.dataset.DEFAULT_GRID), f"{name}: class {label} off the grid")
            if r2 is not None:
                print(f"{name}: class {label}, N1 {r2.n1}, N2 {r2.n2}, binary64 {r64.iterations if r64 else '-'}")
                ck.check_solution(chk, A, b, r2.x, EPS2, f"{name} two-stage")
            if r64 is not None and r64.status == "converged":
                ck.check_solution(chk, A, b, r64.x, EPS2, f"{name} binary64")
            lam_max = mpcg.features.eigen_estimates(A).combined.hi
            rq = ck.power_rayleigh(A, POWER_ITERATIONS, seed)
            chk.expect(rq <= lam_max * (1 + 1e-12), f"{name}: lambda_max {lam_max} below Rayleigh quotient {rq}")
        return len(ctx["matrices"]), rounds[-1]["failed"]

    def model_sample(self, ctx: dict, rounds: list[dict]) -> Path:
        return ctx["sample"]
