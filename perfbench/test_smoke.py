"""Tiny-size smoke test of the benchmark harness.

    PYTHONPATH=perfbench python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at a small size, untraced and traced, and checks the
shape of the result line; the figures themselves are not asserted.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

DECLARED = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "desk-pipeline": lambda m: wl.DeskWorkload(
        m, wl.DeskConfig(count=24, check_records=3, solve_repeats=1)),
    "desk-label-2w": lambda m: wl.DeskWorkload(
        m, wl.DeskConfig(count=24, workers=2, pipeline=False, check_records=3, solve_repeats=1)),
    "large-auto-solve": lambda m: wl.LargeWorkload(
        m, wl.LargeConfig(files=(("grid2d", 1024), ("tree_random", 900)), model_count=24)),
}


@pytest.fixture(scope="module")
def mpcg():
    return run.import_package()


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_workload_result_shape(mpcg, name, trace):
    work = run.ROOT / ".perfbench_work" / "smoke" / f"{name}-{int(trace)}"
    result = run.run(mpcg, TINY[name](mpcg), seed=5, seconds=0, trace=trace, work=work)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    metrics = result["metrics"]
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in metrics.items()} == {d["name"]: d["unit"] for d in declared}
    assert all(isinstance(m["value"], float) for m in metrics.values())
    if trace:
        assert metrics["sparse.spmv_calls"]["value"] > 0
        assert 1.9 < metrics["solver.spmv_per_iter"]["value"] < 2.2
    else:
        assert all(m["value"] > 0 for m in metrics.values())


def test_tracer_restores_functions(mpcg):
    original = mpcg.solver.spmv
    tracer = tracing.Tracer(run.ROOT / ".perfbench_work" / "smoke" / "restore")
    tracer.install(mpcg)
    assert mpcg.solver.spmv is not original
    tracer.uninstall()
    assert mpcg.solver.spmv is original
