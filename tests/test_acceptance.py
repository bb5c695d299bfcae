"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all
live).  The desk-scale pipeline is built once per session and shared by the
criteria that score it.
"""

import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from mpcg.cli import main as cli_main
from mpcg.dataset import (
    EpsilonGrid,
    GraphSpec,
    generate,
    manifest_path,
    perturb,
    plan_specs,
    read_sample,
)
from mpcg.features import eigen_estimates, pseudo_diameter
from mpcg.regression import evaluate, fit_knn, knn_predict, load_model, split
from mpcg.solver import SolveConfig, cg, two_stage_solve

from oracles import (
    dd_spd_triplets,
    dense_of,
    eigenvalues_of,
    from_triplets,
    iteration_bound,
    knn_vote_reference,
    minimax_reference,
    true_diameter,
)

DESK_SEED = 42
SPLIT_SEED = 3
K = 5
# sha256 of the desk sample.jsonl.  A deliberate change to what labelling
# records re-baselines this constant; the last did two things at once:
# cost entries gained their products (p1, p2), and runs test the true
# residual near a threshold only at or below it, which moved two cost
# entries and no label.
DESK_SAMPLE_SHA256 = "ce4747bc382f6f49a8e54f8417cd1995dc185c7392bdc74b156e35f2cb013e9f"
# sha256 of the other files of the same run; a change to how a file is
# written, or to what the model or report computes, re-baselines its line.
DESK_OUTPUT_SHA256 = {
    "specs": "fc68192b580dc7663e24e2bbe1b282e5307f21389a61695567cd7fd58a477218",
    "manifest": "1e50ea9b7e7f63da3ad5b1e1b147a49e035a0767c9edac8b90902997b94ab1f6",
    "model": "0712e755242f52d04cecc039a18d4984a5eaa1ee2363c4ff3eb776913a457df0",
    "report": "edb732f1facbefcada109f9e45889dfccf8db71d7e8014e38059eef1e46c2faf",
    "table": "8b405267f29838d97dd99f67145df06e48d5ce6bf30920819798d9869eab866e",
}


def announce(num: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def expand_specs(specs):
    for spec in specs:
        base = generate(spec)
        yield base
        if spec.variants:
            yield from perturb(
                base,
                spec.variants,
                spec.edges_to_add,
                seed=spec.seed,
                diagonal_strategy=spec.diagonal_strategy,
                delta_range=spec.delta_range,
                constant=spec.constant,
            )


def run_pipeline(root, seed=DESK_SEED):
    """The criterion-6 pipeline, end to end through the CLI."""
    specs = root / "specs.jsonl"
    sample = root / "sample.jsonl"
    model = root / "model.json"
    report = root / "report.json"
    rc = cli_main(
        [
            "generate", "--out", str(specs), "--count", "520",
            "--n-min", "200", "--n-max", "1000", "--seed", str(seed),
        ]
    )
    assert rc == 0
    rc = cli_main(["label", "--specs", str(specs), "--out", str(sample)])
    assert rc == 0
    rc = cli_main(
        [
            "train", "--sample", str(sample), "--out", str(model),
            "--k", str(K), "--seed", str(SPLIT_SEED), "--record-split",
        ]
    )
    assert rc == 0
    rc = cli_main(
        [
            "evaluate", "--sample", str(sample), "--model", str(model),
            "--out", str(report), "--subset", "test",
        ]
    )
    assert rc == 0
    return {
        "specs": specs, "sample": sample, "manifest": Path(manifest_path(sample)),
        "model": model, "report": report, "table": Path(f"{report}.txt"),
    }


@pytest.fixture(scope="session")
def desk_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    paths = run_pipeline(root)
    paths["elapsed"] = time.perf_counter() - t0
    return paths


def test_criterion_1_gershgorin_containment():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 51))
        A = from_triplets(
            dd_spd_triplets(
                n,
                rng,
                density=float(rng.uniform(0.05, 0.3)),
                signed=bool(seed % 3),
            ),
            n,
        )
        est = eigen_estimates(A)
        ev = eigenvalues_of(A)
        assert est.combined.lo - 1e-9 <= ev[0], f"seed {seed}: low end escapes"
        assert ev[-1] <= est.combined.hi + 1e-9, f"seed {seed}: high end escapes"
        assert est.basic.lo <= est.combined.lo and est.combined.hi <= est.basic.hi
        checked += 1
    elapsed = time.perf_counter() - t0
    announce(
        1,
        checked >= 200 and elapsed < 10,
        f"spectra of {checked} matrices inside combined hull, combined within "
        f"basic ({elapsed:.1f}s)",
    )


def test_criterion_2_pseudo_diameter_bound():
    t0 = time.perf_counter()
    trees = graphs = 0
    for seed in range(70):
        n = int(40 + (seed * 13) % 160)
        A = generate(GraphSpec("tree_random", n, seed=seed))
        assert pseudo_diameter(A) == true_diameter(A), f"tree seed {seed}"
        trees += 1
    makers = [
        lambda n, s: GraphSpec("path", n, seed=s),
        lambda n, s: GraphSpec("cycle", max(n, 3), seed=s),
        lambda n, s: GraphSpec("grid2d", n, seed=s),
        lambda n, s: GraphSpec("star", n, seed=s),
        lambda n, s: GraphSpec("random_gnm", n, seed=s, m_target=int(1.4 * n)),
        lambda n, s: GraphSpec("random_gnm", n, seed=s, m_target=3 * n),
    ]
    for seed in range(140):
        n = int(30 + (seed * 17) % 170)
        A = generate(makers[seed % len(makers)](n, seed))
        assert pseudo_diameter(A) <= true_diameter(A), f"graph seed {seed}"
        graphs += 1
    elapsed = time.perf_counter() - t0
    announce(
        2,
        trees + graphs >= 200 and elapsed < 10,
        f"2BFS never exceeded the true diameter on {trees + graphs} graphs and "
        f"matched it on all {trees} trees ({elapsed:.1f}s)",
    )


def test_criterion_3_cg_iteration_bounds():
    t0 = time.perf_counter()
    eps = 1e-8
    cfg = SolveConfig(tolerance=eps)
    for k in range(1, 11):
        for rep in range(5):
            rng = np.random.default_rng(1000 * k + rep)
            distinct = np.geomspace(1.0, 50.0, k)
            values = np.repeat(distinct, 5)
            A = from_triplets(
                [(i, i, float(v)) for i, v in enumerate(values)], values.size
            )
            res = cg(A, rng.standard_normal(values.size), None, cfg)
            assert res.status == "converged"
            assert res.iterations <= k + 2, f"k={k}: took {res.iterations}"
    bounded = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 51))
        A = from_triplets(dd_spd_triplets(n, rng, density=0.2), n)
        ev = eigenvalues_of(A)
        res = cg(A, rng.standard_normal(n), None, cfg)
        assert res.status == "converged"
        bound = iteration_bound(float(ev[-1] / ev[0]), eps)
        assert res.iterations <= bound, f"seed {seed}: {res.iterations} > {bound}"
        bounded += 1
    elapsed = time.perf_counter() - t0
    announce(
        3,
        bounded >= 50 and elapsed < 5,
        f"distinct-eigenvalue termination within k+2 and {bounded} measured "
        f"runs within the sqrt(kappa) bound ({elapsed:.1f}s)",
    )


def test_criterion_4_two_stage_final_accuracy():
    t0 = time.perf_counter()
    eps2 = 1e-10
    grid = EpsilonGrid(epsilon2=eps2)
    specs = plan_specs(total=100, n_range=(200, 1000), seed=9)
    solved = matrices = failures = 0
    for A in expand_specs(specs):
        matrices += 1
        b = A @ np.ones(A.n)
        dense = dense_of(A)
        norm_b = np.linalg.norm(b)
        for eps1 in grid.values:
            try:
                r = two_stage_solve(A, b, eps1, eps2, grid.mu)
            except Exception:
                failures += 1
                continue
            in_library = np.linalg.norm(b - A @ r.x) / norm_b
            assert in_library <= eps2, "stopping contract violated"
            independent = np.linalg.norm(b - dense @ r.x) / norm_b
            # dense recompute carries its own rounding noise of ~1e-6
            # relative to a residual this small
            assert independent <= eps2 * (1 + 1e-5), "independent recompute escapes"
            solved += 1
    elapsed = time.perf_counter() - t0
    announce(
        4,
        matrices >= 100 and elapsed < 600,
        f"all {solved} converged two-stage runs over {matrices} matrices "
        f"(full grid sweep, {failures} non-converged skipped) hit relative "
        f"residual <= 1e-10 ({elapsed:.1f}s)",
    )


def test_criterion_5_cost_ordering(desk_pipeline):
    records = read_sample(desk_pipeline["sample"])
    model = load_model(desk_pipeline["model"])
    test = [r for r in records if r.matrix_id in set(model.test_ids)]
    report = evaluate(model, test)
    for row in report.rows:
        assert row.i_opt <= row.i_knn <= row.i_wrst, row.matrix_id
    ok = report.n_opt <= report.n_knn <= report.n_wrst
    announce(
        5,
        ok,
        f"N_Opt={report.n_opt:.1f} <= N_kNN={report.n_knn:.1f} <= "
        f"N_Wrst={report.n_wrst:.1f} and every per-matrix row ordered",
    )


def test_criterion_6_desk_scale_reduction(desk_pipeline):
    records = read_sample(desk_pipeline["sample"])
    model = load_model(desk_pipeline["model"])
    test = [r for r in records if r.matrix_id in set(model.test_ids)]
    report = evaluate(model, test)
    benefit = report.n_knn <= 0.97 * report.n_wrst
    near_opt = report.n_knn - report.n_opt <= 0.10 * report.n_opt
    # group-aware split shown alongside for context (not asserted)
    g_train, g_test = split(records, 0.1, seed=SPLIT_SEED, group_aware=True)
    g_report = evaluate(fit_knn(g_train, K), g_test)
    print(
        f"\n  sample={len(records)} records, test={len(test)} (record split), "
        f"elapsed={desk_pipeline['elapsed']:.0f}s"
        f"\n  N_Opt/N_Wrst = {report.ratio_opt_wrst:.4f}"
        f"  N_kNN/N_Wrst = {report.ratio_knn_wrst:.4f}"
        f"  (full-scale reference: 0.86 / 0.86)"
        f"\n  N_kNN-N_Opt = {report.diff_knn_opt:.1f}"
        f"  N_Wrst-N_kNN = {report.diff_wrst_knn:.1f}"
        f"\n  group-aware split for comparison: N_kNN/N_Wrst = "
        f"{g_report.ratio_knn_wrst:.4f}, N_kNN-N_Opt = {g_report.diff_knn_opt:.1f}"
    )
    announce(
        6,
        len(records) >= 500
        and benefit
        and near_opt
        and desk_pipeline["elapsed"] < 1800,
        f"{len(records)} matrices: N_kNN/N_Wrst={report.ratio_knn_wrst:.4f} "
        f"<= 0.97 and N_kNN-N_Opt={report.diff_knn_opt:.1f} <= "
        f"{0.10 * report.n_opt:.1f} ({desk_pipeline['elapsed']:.0f}s)",
    )


def test_criterion_7_k1_self_consistency(desk_pipeline):
    records = read_sample(desk_pipeline["sample"])
    model = load_model(desk_pipeline["model"])
    train = [r for r in records if r.matrix_id in set(model.train_ids)]
    model1 = fit_knn(train, k=1)
    report = evaluate(model1, train)
    announce(
        7,
        report.n_knn == report.n_opt,
        f"k=1 on the training side: N_kNN == N_Opt == {report.n_opt:.1f}",
    )


def test_desk_sample_digest(desk_pipeline):
    digest = hashlib.sha256(desk_pipeline["sample"].read_bytes()).hexdigest()
    assert digest == DESK_SAMPLE_SHA256
    records = read_sample(desk_pipeline["sample"], include_invalid=True)
    assert (sum(r.valid for r in records), len(records)) == (525, 525)


def test_desk_sample_digest_with_two_workers(desk_pipeline, tmp_path):
    sample = tmp_path / "sample.jsonl"
    argv = ["label", "--specs", str(desk_pipeline["specs"]), "--out", str(sample)]
    assert cli_main(argv + ["--threads", "2"]) == 0
    assert hashlib.sha256(sample.read_bytes()).hexdigest() == DESK_SAMPLE_SHA256
    records = read_sample(sample, include_invalid=True)
    assert (sum(r.valid for r in records), len(records)) == (525, 525)


@pytest.mark.parametrize("name", DESK_OUTPUT_SHA256)
def test_desk_output_digest(desk_pipeline, name):
    digest = hashlib.sha256(desk_pipeline[name].read_bytes()).hexdigest()
    assert digest == DESK_OUTPUT_SHA256[name]


def test_model_matches_per_record_scaling(desk_pipeline):
    """The bounds, points and predictions of the desk model, bit for bit
    those of scaling one feature vector at a time."""
    records = read_sample(desk_pipeline["sample"])
    model = load_model(desk_pipeline["model"])
    train = [r for r in records if r.matrix_id in set(model.train_ids)]
    mins, maxs, points, queries = minimax_reference(
        [r.features for r in train], [r.features for r in records])
    for fitted in (model, fit_knn(train, K)):
        for got, want in ((fitted.mins, mins), (fitted.maxs, maxs), (fitted.points, points)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    labels = np.array([r.label for r in train])
    for rec, q in zip(records, queries):
        want = knn_vote_reference(points, labels, K, q)
        assert knn_predict(model, rec.features) == want, rec.matrix_id


def test_criterion_8_determinism(desk_pipeline, tmp_path_factory):
    rerun_root = tmp_path_factory.mktemp("desk_rerun")
    rerun = run_pipeline(rerun_root)
    same = {
        name: rerun[name].read_bytes() == desk_pipeline[name].read_bytes()
        for name in ("sample", "model", "report")
    }
    announce(
        8,
        all(same.values()),
        "repeated pipeline produced byte-identical sample, model, and report "
        f"files {same}",
    )
