import concurrent.futures
import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import mpcg
from mpcg.dataset import (
    DEFAULT_GRID,
    CostEntry,
    DatasetManifest,
    EpsilonGrid,
    GraphSpec,
    SampleRecord,
    build_sample,
    generate,
    label_matrix,
    manifest_path,
    ones_rhs,
    perturb,
    plan_specs,
    read_sample,
    read_specs,
    write_sample,
    write_specs,
    _decode_pairs,
    _encode_pairs,
    _max_degree,
    _random_regular_edges,
)
from mpcg.errors import (
    CgBreakdownError,
    GraphFullError,
    InvalidSpecError,
    SinglePrecisionOverflowError,
    Stage2NotConvergedError,
)
from mpcg.features import FeatureVector, extract_features
from mpcg.solver import SolveConfig, sweep, two_stage_solve

from oracles import (
    eigenvalues_of,
    from_triplets,
    label_matrix_reference,
    minimax_reference,
    two_stage_reference,
)


def offdiag_abs_rowsums(A):
    row_of = np.repeat(np.arange(A.n), np.diff(A.row_starts))
    vals = np.abs(A.values.copy())
    vals[A.col_indices == row_of] = 0.0
    return np.add.reduceat(vals, A.row_starts[:-1])


class TestEpsilonGrid:
    def test_default_matches_powers_of_ten(self):
        assert DEFAULT_GRID == (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
        grid = EpsilonGrid()
        assert grid.values == DEFAULT_GRID
        assert grid.epsilon2 == 1e-10 and grid.mu == 0.5

    def test_canonicalizes_order(self):
        grid = EpsilonGrid(values=(1e-3, 1e-1, 1e-2))
        assert grid.values == (1e-1, 1e-2, 1e-3)

    def test_rejects_duplicates_and_bad_floor(self):
        with pytest.raises(ValueError):
            EpsilonGrid(values=(0.1, 0.1))
        with pytest.raises(ValueError):
            EpsilonGrid(values=(0.1, 1e-12), epsilon2=1e-10)
        with pytest.raises(ValueError):
            EpsilonGrid(mu=1.0)
        with pytest.raises(ValueError, match="grid values must be positive"):
            EpsilonGrid(values=(0.1, 0.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, value):
        with pytest.raises(ValueError, match="grid values must be finite"):
            EpsilonGrid(values=(1e-2, value))

    @pytest.mark.parametrize("epsilon2", [float("nan"), 0.0, -1.0, float("inf")])
    def test_rejects_epsilon2_outside_zero_to_infinity(self, epsilon2):
        with pytest.raises(ValueError, match="epsilon2 must be positive and finite"):
            EpsilonGrid(epsilon2=epsilon2)


# Inconsistent spec fields and the InvalidSpecError message each gets.
BAD_SPECS = {
    "n-float": ({"family": "path", "n": 10.5}, "n must be an integer"),
    "n-bool": ({"family": "path", "n": True}, "n must be an integer"),
    "n-zero": ({"family": "path", "n": 0}, "n must be at least 1"),
    "n-huge": ({"family": "grid2d", "n": 10**20}, "n must be at most 2147483647"),
    "n-huge-constant": ({"family": "grid2d", "n": 10**20, "diagonal_strategy": "uniform_constant",
                         "constant": 5.0}, "n must be at most 2147483647"),
    "seed-float": ({"family": "path", "n": 10, "seed": 1.5}, "seed must be an integer"),
    "seed-negative": ({"family": "path", "n": 10, "seed": -1}, "seed must be nonnegative"),
    "variants-float": ({"family": "path", "n": 10, "variants": 2.0},
                       "variants must be an integer"),
    "variants-negative": ({"family": "path", "n": 10, "variants": -1},
                          "variants must be nonnegative"),
    "degree-float": ({"family": "random_regular", "n": 10, "degree": 3.0},
                     "degree must be an integer"),
    "m_target-str": ({"family": "random_gnm", "n": 10, "m_target": "9"},
                     "m_target must be an integer"),
    "m_target-missing": ({"family": "random_gnm", "n": 10}, "random_gnm needs m_target >= 0"),
    "edges_to_add-bool": ({"family": "path", "n": 10, "variants": 2, "edges_to_add": False},
                          "edges_to_add must be an integer"),
    "edges_to_add-zero": ({"family": "path", "n": 10, "variants": 2, "edges_to_add": 0},
                          "edges_to_add must be at least 1"),
    "strategy-unknown": ({"family": "path", "n": 10, "diagonal_strategy": "identity"},
                         "unknown diagonal strategy 'identity'"),
    "constant-missing": ({"family": "tree_random", "n": 10,
                          "diagonal_strategy": "uniform_constant"},
                         "needs a finite constant, got None"),
    "constant-inf": ({"family": "tree_random", "n": 10, "diagonal_strategy": "uniform_constant",
                      "constant": math.inf}, "needs a finite constant"),
    "constant-str": ({"family": "random_gnm", "n": 10, "m_target": 9, "constant": "5",
                      "diagonal_strategy": "uniform_constant"}, "needs a finite constant"),
    "delta-inf": ({"family": "path", "n": 10, "delta_range": (0.1, math.inf)}, "delta_range"),
    "grid2d-constant": ({"family": "grid2d", "n": 12, "diagonal_strategy": "uniform_constant",
                         "constant": 3.0}, "maximum degree 4"),
    "random_regular-constant": ({"family": "random_regular", "n": 10, "degree": 4,
                                 "constant": 4.0, "diagonal_strategy": "uniform_constant"},
                                "maximum degree 4"),
}


# A sample record's field of the wrong type: where it sits, its value, and
# the error that names it.  A bool is no number; a valid record's outcome
# may not be null.
BAD_RECORD_FIELDS = {
    "valid-string": (("valid",), "false", "valid must be a bool, got 'false'"),
    "valid-int": (("valid",), 1, "valid must be a bool, got 1"),
    "matrix-id-int": (("matrix_id",), 7, "matrix_id must be a string, got 7"),
    "group-id-null": (("group_id",), None, "group_id must be a string, got None"),
    "invalid-reason-int": (("invalid_reason",), 3, "invalid_reason must be a string, got 3"),
    "n-string": (("features", "n"), "abc", "n must be an integer, got 'abc'"),
    "nnz-float": (("features", "nnz"), 40.0, "nnz must be an integer, got 40.0"),
    "pseudo-diameter-bool": (("features", "pseudo_diameter"), True,
                             "pseudo_diameter must be an integer, got True"),
    "spread-null": (("features", "spread"), None, "spread must be a finite number, got None"),
    "lambda-max-string": (("features", "lambda_max"), "4.0",
                          "lambda_max must be a finite number, got '4.0'"),
    "epsilon1-bool": (("costs", 0, "epsilon1"), False,
                      "epsilon1 must be a finite number, got False"),
    "n1-float": (("costs", 0, "n1"), 1.5, "n1 must be an integer, got 1.5"),
    "n2-null": (("costs", 0, "n2"), None, "n2 must be an integer, got None"),
    "cost-string": (("costs", 0, "cost"), "5", "cost must be a finite number, got '5'"),
    "p1-float": (("costs", 0, "p1"), 3.0, "p1 must be an integer, got 3.0"),
    "p2-bool": (("costs", 0, "p2"), True, "p2 must be an integer, got True"),
    "p2-negative": (("costs", 0, "p2"), -1, "p2 must be nonnegative, got -1"),
    "n1-negative": (("costs", 0, "n1"), -2, "n1 must be nonnegative, got -2"),
    "label-float": (("label",), 2.5, "label must be an integer, got 2.5"),
    "label-null": (("label",), None, "label must be an integer, got None"),
    "i-opt-bool": (("i_opt",), True, "i_opt must be a finite number, got True"),
    "i-wrst-null": (("i_wrst",), None, "i_wrst must be a finite number, got None"),
    # The stored label, i_opt and i_wrst are a cache of what the costs give
    # (grid costs 20.5, 21.0, 21.5, 21.0, 20.0, 19.0, 18.5): class 7, 18.5
    # and 21.5; an invalid record's costs give None.
    "label-not-least-cost": (("label",), 1, "label 1 is not the 7 its costs give"),
    "label-true": (("label",), True, "label must be an integer, got True"),
    "i-opt-not-least": (("i_opt",), 20.0, "i_opt 20.0 is not the 18.5 its costs give"),
    "i-wrst-not-greatest": (("i_wrst",), 21.0, "i_wrst 21.0 is not the 21.5 its costs give"),
    "invalid-with-label": (("valid",), False, "label 7 is not the None its costs give"),
    "baseline-only": (("costs",), [{"epsilon1": None, "n1": 0, "n2": 20, "cost": 20.0}],
                      "a valid record needs a cost entry for a grid value of eps1"),
}


# The record of GraphSpec("path", 12, seed=1) as labelling wrote it before
# cost entries recorded their products.
RECORD_WITHOUT_PRODUCTS = (
    '{"costs": [{"cost": 12.5, "epsilon1": 0.1, "n1": 1, "n2": 12}, {"cost": 14.0, "epsilon1": '
    '0.01, "n1": 4, "n2": 12}, {"cost": 15.0, "epsilon1": 0.001, "n1": 6, "n2": 12}, {"cost": '
    '15.5, "epsilon1": 0.0001, "n1": 9, "n2": 11}, {"cost": 12.5, "epsilon1": 1e-05, "n1": 11, '
    '"n2": 7}, {"cost": 12.5, "epsilon1": 1e-06, "n1": 11, "n2": 7}, {"cost": 13.0, "epsilon1": '
    '1e-07, "n1": 12, "n2": 7}, {"cost": 12.0, "epsilon1": null, "n1": 0, "n2": 12}], '
    '"features": {"lambda_max": 5.663133743960662, "n": 12, "nnz": 34, "pseudo_diameter": 11, '
    '"spread": 0.9229564457209224}, "group_id": "s00000", "i_opt": 12.5, "i_wrst": 15.5, '
    '"invalid_reason": null, "label": 1, "matrix_id": "s00000", "spec": {"constant": null, '
    '"degree": null, "delta_range": [0.1, 2.0], "diagonal_strategy": "degree_plus_delta", '
    '"edges_to_add": null, "family": "path", "m_target": null, "n": 12, "seed": 1, "variants": '
    '0}, "valid": true}\n'
)


def sample_line(tmp_path) -> str:
    """One labelled record of a small path matrix, as its sample file holds it."""
    out = tmp_path / "one.jsonl"
    build_sample([GraphSpec("path", 20, seed=1)], EpsilonGrid(), out)
    return out.read_text()


class TestGenerate:
    def test_path_with_constant_diagonal(self):
        A = generate(GraphSpec("path", 4, diagonal_strategy="uniform_constant", constant=3.0))
        np.testing.assert_array_equal(
            A.toarray(),
            [[3, 1, 0, 0], [1, 3, 1, 0], [0, 1, 3, 1], [0, 0, 1, 3]],
        )

    def test_deterministic_per_seed(self):
        spec = GraphSpec("random_gnm", 100, seed=5, m_target=300)
        A = generate(spec)
        B = generate(spec)
        assert np.array_equal(A.values.view(np.uint64), B.values.view(np.uint64))
        assert np.array_equal(A.col_indices, B.col_indices)

    @pytest.mark.parametrize(
        "spec",
        [
            GraphSpec("path", 31, seed=1),
            GraphSpec("cycle", 30, seed=2),
            GraphSpec("grid2d", 36, seed=3),
            GraphSpec("tree_random", 33, seed=4),
            GraphSpec("star", 25, seed=5),
            GraphSpec("random_regular", 30, seed=6, degree=4),
            GraphSpec("random_gnm", 40, seed=7, m_target=90),
            GraphSpec(
                "cycle", 24, seed=8, diagonal_strategy="uniform_constant", constant=5.0
            ),
        ],
    )
    def test_every_family_is_strictly_dominant_and_spd(self, spec):
        A = generate(spec)
        diag = A.diagonal()
        assert np.all(diag > offdiag_abs_rowsums(A))
        assert eigenvalues_of(A)[0] > 0

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            generate(GraphSpec("moebius", 10))
        with pytest.raises(InvalidSpecError):
            generate(GraphSpec("cycle", 2))
        with pytest.raises(InvalidSpecError):
            generate(GraphSpec("random_gnm", 5, m_target=100))
        with pytest.raises(InvalidSpecError):
            generate(GraphSpec("random_regular", 5, degree=3))
        with pytest.raises(InvalidSpecError):
            generate(
                GraphSpec("star", 5, diagonal_strategy="uniform_constant", constant=2.0)
            )
        with pytest.raises(InvalidSpecError):
            generate(GraphSpec("path", 5, delta_range=(0.0, 1.0)))

    def test_largest_n_is_a_valid_spec(self):
        # 2**31 - 1 is prime: the grid is one row, of maximum degree 2
        spec = GraphSpec("grid2d", 2**31 - 1, diagonal_strategy="uniform_constant", constant=2.5)
        assert _max_degree(spec) == 2
        with pytest.raises(InvalidSpecError, match="maximum degree 2"):
            dataclasses.replace(spec, constant=2.0)

    @pytest.mark.parametrize("fields, message", BAD_SPECS.values(), ids=BAD_SPECS.keys())
    def test_spec_rejected_before_generation(self, fields, message):
        with pytest.raises(InvalidSpecError, match=message):
            generate(GraphSpec(**fields))

    @pytest.mark.parametrize("fields, message", BAD_SPECS.values(), ids=BAD_SPECS.keys())
    def test_replace_and_from_dict_reject_a_bad_spec(self, fields, message):
        with pytest.raises(InvalidSpecError, match=message):
            dataclasses.replace(GraphSpec("path", 10), **fields)
        with pytest.raises(InvalidSpecError, match=message):
            GraphSpec.from_dict(fields)

    @pytest.mark.parametrize("reader", ["read_specs", "read_sample"])
    @pytest.mark.parametrize("fields, message", BAD_SPECS.values(), ids=BAD_SPECS.keys())
    def test_readers_reject_a_bad_spec_at_its_line(self, tmp_path, reader, fields, message):
        line = json.dumps(fields)
        if reader == "read_sample":
            line = json.dumps({**json.loads(sample_line(tmp_path)), "spec": fields})
        path = tmp_path / "in.jsonl"
        path.write_text("\n" + line + "\n")
        with pytest.raises(ValueError) as info:
            {"read_specs": read_specs, "read_sample": read_sample}[reader](path)
        if "Infinity" in line:  # JSON holds no inf: the finite-number check comes first
            message = "non-finite number Infinity"
        assert f"{path}:2: " in str(info.value) and message in str(info.value)

    def test_tree_random_of_one_vertex(self):
        A = generate(GraphSpec("tree_random", 1, seed=3))
        assert (A.n, A.nnz) == (1, 1) and 0.1 <= A.diagonal()[0] <= 2.0

    @pytest.mark.parametrize(
        "spec",
        [GraphSpec(f, n) for f in ("path", "grid2d", "star") for n in (1, 2, 3, 4, 6, 7, 12)]
        + [GraphSpec("cycle", n) for n in (3, 4, 7)]
        + [GraphSpec("random_regular", n, seed=n, degree=d)
           for n, d in ((5, 0), (4, 3), (12, 3), (30, 4))],
        ids=lambda spec: f"{spec.family}-{spec.n}",
    )
    def test_max_degree_known_before_generation(self, spec):
        top = _max_degree(spec)
        assert top == int(np.diff(generate(spec).row_starts).max()) - 1
        uniform = dataclasses.replace(
            spec, diagonal_strategy="uniform_constant", constant=top + 0.5
        )
        assert np.all(generate(uniform).diagonal() == top + 0.5)


def csr_digest(A) -> str:
    """sha256 of the three CSR arrays in a fixed byte layout."""
    h = hashlib.sha256()
    h.update(A.row_starts.astype("<i8").tobytes())
    h.update(A.col_indices.astype("<i8").tobytes())
    h.update(A.values.astype("<f8").tobytes())
    return h.hexdigest()


# Taken with networkx 3.6.1 generating the edges; the in-repo generator
# must keep them.
RANDOM_REGULAR_DIGESTS = [
    (
        GraphSpec("random_regular", 500, seed=2024, degree=6),
        "3890484560471681dece302c19caf34bea9161d5ec5f41326a8fdefd74143dda",
    ),
    (
        GraphSpec(
            "random_regular", 301, seed=7, degree=4,
            diagonal_strategy="uniform_constant", constant=5.5,
        ),
        "8feb047c7e53ec51b598bb816bc031834578d126a66b113daf7dcc7d5bf3a43b",
    ),
]

NO_NETWORKX_SCRIPT = """
import sys, tempfile, os
from mpcg.cli import main
from mpcg.dataset import FAMILIES, GraphSpec, generate
extra = {"random_gnm": {"m_target": 60}, "random_regular": {"degree": 4}}
for family in FAMILIES:
    generate(GraphSpec(family, 40, seed=1, **extra.get(family, {})))
with tempfile.TemporaryDirectory() as d:
    specs = os.path.join(d, "specs.jsonl")
    with open(specs, "w") as fh:
        fh.write('{"family": "random_regular", "n": 60, "degree": 3, "seed": 5}\\n')
    assert main(["label", "--specs", specs, "--out", os.path.join(d, "s.jsonl")]) == 0
print("networkx" in sys.modules)
"""


class TestRandomRegular:
    @pytest.mark.parametrize("n", [10, 200, 1000])
    @pytest.mark.parametrize("d", [0, 3, 4, 6, 8])
    def test_edges_match_networkx(self, d, n):
        nx = pytest.importorskip("networkx")
        for seed in range(5):
            expected = {
                tuple(sorted(e))
                for e in nx.random_regular_graph(d, n, seed=seed).edges()
            }
            assert _random_regular_edges(d, n, random.Random(seed)) == expected

    @pytest.mark.parametrize("d,n", [(3, 10), (8, 10), (6, 200)])
    def test_simple_and_regular(self, d, n):
        edges = _random_regular_edges(d, n, random.Random(1))
        assert all(0 <= i < j < n for i, j in edges)
        degrees = np.bincount(np.array(sorted(edges)).ravel(), minlength=n)
        assert np.all(degrees == d)

    @pytest.mark.parametrize("spec,digest", RANDOM_REGULAR_DIGESTS)
    def test_pinned_matrix_digest(self, spec, digest):
        assert csr_digest(generate(spec)) == digest

    def test_spec_that_keeps_dead_ending_is_skipped(self, tmp_path, caplog):
        # At n = 200, degree 190 dead-ends attempt after attempt, about 50 ms
        # each; networkx would go on trying without end.
        dense = GraphSpec("random_regular", 200, seed=1, degree=190)
        out = tmp_path / "s.jsonl"
        start = time.perf_counter()
        manifest = build_sample([dense, GraphSpec("path", 20, seed=1)], EpsilonGrid(), out)
        assert time.perf_counter() - start < 15
        assert [r.matrix_id for r in read_sample(out)] == ["s00001"]
        assert manifest.records_total == 1
        assert ("generation failed for s00000: no random 190-regular graph on n = 200 "
                "vertices after 100 restarts") in caplog.text

    def test_generate_and_label_never_load_networkx(self):
        src = os.path.dirname(os.path.dirname(mpcg.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", NO_NETWORKX_SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip().splitlines()[-1] == "False"


class TestPerturb:
    def test_adds_exactly_one_mirrored_edge(self):
        base = generate(GraphSpec("path", 10))
        variants = perturb(base, variants=10, edges_to_add=1, seed=3)
        assert len(variants) == 10
        for v in variants:
            assert v.nnz == base.nnz + 2

    def test_complete_graph_is_full(self):
        n = 4
        trips = [(i, j, 1.0) for i in range(n) for j in range(n) if i != j]
        trips += [(i, i, float(n)) for i in range(n)]
        K = from_triplets(trips, n)
        with pytest.raises(GraphFullError):
            perturb(K, variants=2, edges_to_add=1, seed=0)

    def test_variants_differ_and_preserve_dominance(self):
        base = generate(GraphSpec("random_gnm", 60, seed=9, m_target=120))
        variants = perturb(base, variants=6, edges_to_add=3, seed=9)
        patterns = {tuple(v.col_indices.tolist()) for v in variants}
        assert len(patterns) > 1
        for v in variants:
            assert np.all(v.diagonal() > offdiag_abs_rowsums(v))
            assert v.nnz == base.nnz + 6

    def test_constant_that_stops_dominating_is_raised(self):
        # path(5) has maximum degree 2; a new edge at an inner vertex lifts it to 3.
        base = generate(GraphSpec("path", 5, diagonal_strategy="uniform_constant", constant=2.5))
        diagonals = set()
        for v in perturb(base, variants=4, edges_to_add=1, seed=1,
                         diagonal_strategy="uniform_constant", constant=2.5):
            top = int(np.diff(v.row_starts).max()) - 1
            assert np.all(v.diagonal() == (2.5 if top < 2.5 else top + 1.0))
            diagonals.add(float(v.diagonal()[0]))
        assert 4.0 in diagonals  # a variant of maximum degree 3 was raised

    def test_no_edge_to_add_is_rejected(self):
        base = generate(GraphSpec("path", 10))
        with pytest.raises(ValueError, match="edges_to_add must be at least 1"):
            perturb(base, variants=2, edges_to_add=0)

    def test_deterministic(self):
        base = generate(GraphSpec("random_gnm", 40, seed=2, m_target=80))
        a = perturb(base, variants=3, edges_to_add=2, seed=5)
        b = perturb(base, variants=3, edges_to_add=2, seed=5)
        for u, v in zip(a, b):
            assert np.array_equal(u.col_indices, v.col_indices)
            assert np.array_equal(u.values.view(np.uint64), v.values.view(np.uint64))

    def test_variant_features_cluster_near_base(self):
        # normalized feature distance of variant to its base stays below the
        # median pairwise distance of the whole collection
        bases = [
            generate(GraphSpec("random_gnm", 100, seed=s, m_target=m))
            for s, m in [(1, 150), (2, 250), (3, 400), (4, 130), (5, 350)]
        ]
        groups = []
        for g, base in enumerate(bases):
            groups.append(
                [base] + perturb(base, variants=5, edges_to_add=2, seed=100 + g)
            )
        feats = [extract_features(M) for grp in groups for M in grp]
        pts = minimax_reference(feats, [])[2]
        d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        overall_median = np.median(d[np.triu_indices(len(pts), 1)])
        k = 0
        for grp in groups:
            base_pt = pts[k]
            member_d = [np.linalg.norm(pts[k + 1 + j] - base_pt) for j in range(5)]
            assert np.median(member_d) < overall_median
            k += len(grp)


class TestPairCodes:
    def test_decoding_matches_triu_indices(self):
        for n in range(2, 61):
            iu, ju = np.triu_indices(n, 1)
            pairs = _decode_pairs(np.arange(n * (n - 1) // 2), n)
            np.testing.assert_array_equal(pairs, np.stack([iu, ju], axis=1))
            np.testing.assert_array_equal(_encode_pairs(pairs, n), np.arange(iu.size))

    def test_round_trip_at_row_boundaries_for_large_n(self):
        n = 250_000
        rows = np.array([0, 1, 2, 1000, n // 2, n - 3, n - 2])
        first = np.stack([rows, rows + 1], axis=1)  # first pair of each row
        last = np.stack([rows, np.full(rows.size, n - 1)], axis=1)  # last pair
        pairs = np.concatenate([first, last])
        codes = _encode_pairs(pairs, n)
        assert codes.max() == n * (n - 1) // 2 - 1
        np.testing.assert_array_equal(_decode_pairs(codes, n), pairs)
        # one code before a row's first pair is the previous row's last pair
        before = _decode_pairs(codes[1 : rows.size] - 1, n)
        np.testing.assert_array_equal(before[:, 0], rows[1:] - 1)
        np.testing.assert_array_equal(before[:, 1], n - 1)

    def test_int32_edges_encode_in_int64(self):
        # i * (2n - i - 1) passes 2**31 at this n, so int32 arithmetic wraps.
        n = 60_000
        rows = np.array([0, 1, 1000, n // 2, n - 2])
        first = np.stack([rows, rows + 1], axis=1)
        last = np.stack([rows, np.full(rows.size, n - 1)], axis=1)
        pairs = np.concatenate([first, last])
        codes = _encode_pairs(pairs.astype(np.int32), n)
        np.testing.assert_array_equal(codes, _encode_pairs(pairs, n))
        np.testing.assert_array_equal(_decode_pairs(codes, n), pairs)


def _peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestSparseGraphMemory:
    # The pair space of n = 5000 holds 12.5M pairs: a table over it costs
    # 12 MiB as booleans and 95 MiB as int64 codes, far above the edges.
    spec = GraphSpec("random_gnm", 5000, seed=1, m_target=10_000)

    def test_generate_random_gnm_needs_no_pair_table(self):
        assert _peak_mib(lambda: generate(self.spec)) < 20

    def test_perturb_needs_no_pair_table(self):
        base = generate(self.spec)
        assert _peak_mib(lambda: perturb(base, 2)) < 20

    def test_generate_validates_without_int64_coordinates(self):
        # The result holds 6.1 MiB.  With the int64 coordinates, their sort
        # order and the duplicate mask still alive during validation, the
        # traced peak was 39.0 MiB; without them it is 26.4 MiB.
        spec = GraphSpec("grid2d", 100_000, seed=3)
        assert _peak_mib(lambda: generate(spec)) < 30


class TestLabelMatrix:
    def test_identity_labels_class_one(self):
        A = from_triplets([(i, i, 1.0) for i in range(6)], 6)
        rec = label_matrix(A, ones_rhs(A), EpsilonGrid(), matrix_id="id")
        assert rec.valid and rec.label == 1
        for e in rec.costs:
            assert e.n1 <= 1 and e.n2 <= 1

    def test_label_cost_is_minimum_of_grid_costs(self):
        A = generate(GraphSpec("random_gnm", 120, seed=12, m_target=260))
        rec = label_matrix(A, ones_rhs(A), EpsilonGrid())
        grid_costs = [e.cost for e in rec.costs if e.epsilon1 is not None]
        assert rec.i_opt == min(grid_costs)
        assert rec.i_wrst == max(grid_costs)
        assert rec.costs[rec.label - 1].cost == rec.i_opt
        baseline = [e for e in rec.costs if e.epsilon1 is None]
        assert len(baseline) == 1 and baseline[0].n1 == 0

    def test_labels_independent_of_grid_input_order(self):
        A = generate(GraphSpec("grid2d", 90, seed=13))
        b = ones_rhs(A)
        rec1 = label_matrix(A, b, EpsilonGrid(values=DEFAULT_GRID))
        shuffled = (1e-4, 1e-1, 1e-7, 1e-3, 1e-2, 1e-6, 1e-5)
        rec2 = label_matrix(A, b, EpsilonGrid(values=shuffled))
        assert rec1.label == rec2.label
        assert [e.cost for e in rec1.costs] == [e.cost for e in rec2.costs]

    def test_tie_break_prefers_larger_eps1(self):
        A = from_triplets([(i, i, 2.0) for i in range(5)], 5)
        rec = label_matrix(A, ones_rhs(A), EpsilonGrid())
        costs = [e.cost for e in rec.costs if e.epsilon1 is not None]
        assert costs.count(min(costs)) > 1
        assert rec.label == 1
        # Classes 3 and 5 tie at the least cost, listed in either order.
        costs = [CostEntry(eps1, 1, 1, c) for eps1, c in zip(DEFAULT_GRID, (9, 8, 5, 7, 5, 6, 9))]
        costs.append(CostEntry(None, 0, 9, 9.0))
        for entries in (costs, costs[::-1]):
            rec = SampleRecord("m", "m", None, FeatureVector(5, 5, 0, 0.0, 2.0), entries)
            assert (rec.grid_entries[rec.label - 1].epsilon1, rec.i_opt, rec.i_wrst) == (
                DEFAULT_GRID[2], 5, 9)

    def test_failed_refinement_yields_invalid_record(self):
        A = generate(GraphSpec("random_gnm", 80, seed=14, m_target=160))
        cfg = SolveConfig(tolerance=1e-10, max_iterations=1)
        rec = label_matrix(A, ones_rhs(A), EpsilonGrid(), cfg)
        assert not rec.valid
        assert rec.label is None and rec.i_opt is None


class TestBuildSample:
    def test_group_of_eleven_records(self, tmp_path):
        specs = [GraphSpec("random_gnm", 60, seed=4, m_target=120, variants=10)]
        out = tmp_path / "sample.jsonl"
        manifest = build_sample(specs, EpsilonGrid(), out)
        records = read_sample(out)
        assert manifest.records_total == 11
        assert len(records) == 11
        assert len({r.group_id for r in records}) == 1
        assert len({r.matrix_id for r in records}) == 11

    def test_empty_specs(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        manifest = build_sample([], EpsilonGrid(), out)
        assert manifest.records_total == 0
        assert out.read_text() == ""
        assert json.loads(Path(manifest_path(out)).read_text())["records_total"] == 0

    def test_roundtrip_and_invariants(self, tmp_path):
        specs = plan_specs(total=24, n_range=(40, 120), variants=5, seed=3)
        out = tmp_path / "s.jsonl"
        build_sample(specs, EpsilonGrid(), out)
        records = read_sample(out)
        assert records
        for rec in records:
            grid_costs = [e.cost for e in rec.costs if e.epsilon1 is not None]
            assert rec.i_opt == min(grid_costs) <= max(grid_costs) == rec.i_wrst
            assert rec.costs[rec.label - 1].cost == rec.i_opt
            assert rec.features.nnz >= rec.features.n

    def test_byte_identical_reruns_and_thread_independence(self, tmp_path):
        specs = plan_specs(total=12, n_range=(30, 80), variants=3, seed=8)
        grid = EpsilonGrid()
        paths = [tmp_path / f"s{i}.jsonl" for i in range(3)]
        build_sample(specs, grid, paths[0])
        build_sample(specs, grid, paths[1])
        build_sample(specs, grid, paths[2], threads=2)
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]
        manifests = [(tmp_path / f"s{i}.jsonl.manifest.json").read_bytes() for i in range(3)]
        assert manifests[0] == manifests[1] == manifests[2]

    @pytest.mark.parametrize("count, workers", [(0, None), (1, None), (2, 2), (4, 3)])
    def test_pool_has_at_most_one_worker_per_spec(self, tmp_path, monkeypatch, count, workers):
        # A pool starts all its workers at once; this one maps in-process.
        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        specs = [GraphSpec("path", 20, seed=i) for i in range(count)]
        build_sample(specs, EpsilonGrid(), tmp_path / "pooled.jsonl", threads=3)
        build_sample(specs, EpsilonGrid(), tmp_path / "serial.jsonl")
        assert pools == ([] if workers is None else [workers])
        assert (tmp_path / "pooled.jsonl").read_bytes() == (tmp_path / "serial.jsonl").read_bytes()

    def test_pool_starts_with_the_engine_imported(self, tmp_path):
        # Workers fork from a parent that holds the engine's scipy modules,
        # which a fresh interpreter's import of mpcg does not load.
        script = (
            "import concurrent.futures, sys\n"
            "from mpcg.dataset import EpsilonGrid, GraphSpec, build_sample\n"
            "ENGINE = ('scipy.sparse.csgraph', 'scipy.linalg.blas')\n"
            "def FakePool(max_workers):  # ends the run where the pool would start\n"
            "    sys.exit(print(max_workers, *(m in sys.modules for m in ENGINE)))\n"
            "concurrent.futures.ProcessPoolExecutor = FakePool\n"
            "print(*(m in sys.modules for m in ENGINE))\n"
            "specs = [GraphSpec('path', 20, seed=i) for i in range(2)]\n"
            "build_sample(specs, EpsilonGrid(), sys.argv[1], threads=3)\n"
        )
        src = os.path.dirname(os.path.dirname(mpcg.__file__))
        out = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path / "pooled.jsonl")],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines() == ["False False", "2 True True"]

    def test_record_json_is_single_line_kv(self, tmp_path):
        specs = [GraphSpec("path", 20, seed=1)]
        out = tmp_path / "one.jsonl"
        build_sample(specs, EpsilonGrid(), out)
        line = out.read_text().splitlines()[0]
        d = json.loads(line)
        assert set(d) == {
            "matrix_id", "group_id", "spec", "features", "costs",
            "label", "i_opt", "i_wrst", "valid", "invalid_reason",
        }
        assert d["valid"] and d["invalid_reason"] is None

    def test_invalid_record_keeps_its_reason(self, tmp_path):
        A, config = SWEEP_CASES["indefinite"]
        rec = label_matrix(A, ones_rhs(A), EpsilonGrid(), config, "s", "s")
        assert not rec.valid
        assert rec.invalid_reason == (
            "CgBreakdownError: d'Ad = -16.0 at iteration 1: operand not SPD at binary32")
        out = tmp_path / "s.jsonl"
        write_sample([rec], out)
        (back,) = read_sample(out, include_invalid=True)
        assert back == rec

    def test_generation_failure_is_logged_and_skipped(self, tmp_path, caplog):
        # A tree's maximum degree is known only once it is drawn; this one
        # reaches more than 2, so the constant does not dominate.
        tree = GraphSpec("tree_random", 30, seed=1, diagonal_strategy="uniform_constant",
                         constant=2.0)
        out = tmp_path / "s.jsonl"
        manifest = build_sample([tree, GraphSpec("path", 20, seed=1)], EpsilonGrid(), out)
        assert manifest.records_total == 1
        assert [r.matrix_id for r in read_sample(out)] == ["s00001"]
        assert "generation failed for s00000: uniform_constant diagonal must exceed" in caplog.text

    @pytest.mark.parametrize("where", ["top", "costs"])
    def test_unknown_record_key_is_malformed(self, tmp_path, where):
        record = json.loads(sample_line(tmp_path))
        (record if where == "top" else record["costs"][0])["bogus"] = 1
        out = tmp_path / "s.jsonl"
        out.write_text(json.dumps(record) + "\n")
        with pytest.raises(ValueError, match=f"malformed record at {out}:1: TypeError") as info:
            read_sample(out)
        assert "unexpected keyword argument 'bogus'" in str(info.value)

    @pytest.mark.parametrize("where, value, message", BAD_RECORD_FIELDS.values(),
                             ids=BAD_RECORD_FIELDS.keys())
    def test_bad_record_number_names_its_line(self, tmp_path, where, value, message):
        line = sample_line(tmp_path)
        record = json.loads(line)
        *parents, key = where
        target = record
        for step in parents:
            target = target[step]
        target[key] = value
        out = tmp_path / "s.jsonl"
        out.write_text(line + json.dumps(record) + "\n")
        with pytest.raises(ValueError) as info:
            read_sample(out)
        assert str(info.value) == f"malformed record at {out}:2: {ValueError(message)!r}"

    @pytest.mark.parametrize("build", [
        lambda v: FeatureVector(20, 40, 5, v, 4.0),
        lambda v: FeatureVector(20, 40, 5, 0.5, v),
        lambda v: CostEntry(v, 1, 2, 2.5),
        lambda v: CostEntry(0.1, 1, 2, v),
    ], ids=["spread", "lambda_max", "epsilon1", "cost"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected_when_built(self, build, value):
        with pytest.raises(ValueError, match="must be a finite number"):
            build(value)

    def test_writer_refuses_a_non_finite_number(self, tmp_path):
        # json.dumps writes NaN unless told not to, and no reader takes it
        out = tmp_path / "s.jsonl"
        manifest = DatasetManifest(1, 0, 0, 0, 0, [0.1], 1e-10, math.nan, "none",
                                   "relative", [])
        with pytest.raises(ValueError, match="Out of range float values"):
            write_sample([], out, manifest)
        assert not os.path.exists(manifest_path(out))

    def test_sample_without_reasons_still_reads(self, tmp_path):
        specs = [GraphSpec("path", 20, seed=1)]
        out = tmp_path / "old.jsonl"
        build_sample(specs, EpsilonGrid(), out)
        (want,) = read_sample(out)
        old = json.loads(out.read_text())
        del old["invalid_reason"]
        out.write_text(json.dumps(old) + "\n")
        (got,) = read_sample(out)
        assert got == want and got.invalid_reason is None

    def test_sample_without_products_still_reads(self, tmp_path):
        old = tmp_path / "old.jsonl"
        old.write_text(RECORD_WITHOUT_PRODUCTS)
        (got,) = read_sample(old)
        assert all(c.p1 is None and c.p2 is None for c in got.costs)
        out = tmp_path / "new.jsonl"
        build_sample([GraphSpec("path", 12, seed=1)], EpsilonGrid(), out)
        (new,) = read_sample(out)
        stripped = [{k: v for k, v in vars(c).items() if k not in ("p1", "p2")}
                    for c in new.costs]
        assert got == dataclasses.replace(new, costs=[CostEntry(**c) for c in stripped])

    def test_products_cover_iterations(self, tmp_path):
        specs = [GraphSpec("path", 20, seed=1), GraphSpec("random_gnm", 60, seed=2, m_target=90),
                 GraphSpec("tree_random", 50, seed=3, delta_range=(1e-4, 1e-3))]
        out = tmp_path / "s.jsonl"
        build_sample(specs, EpsilonGrid(), out)
        for rec in read_sample(out):
            *grid, base = rec.costs
            assert (base.n1, base.p1) == (0, 0) and base.p2 > base.n2
            # The initial residual and the test that stops each stage.
            assert all(c.p1 > c.n1 and c.p2 > c.n2 for c in grid)


class TestSpecFiles:
    def test_round_trip(self, tmp_path):
        specs = plan_specs(total=40, n_range=(20, 60), variants=3, seed=2)
        path = tmp_path / "specs.jsonl"
        write_specs(specs, path)
        assert read_specs(path) == specs
        lines = path.read_text().splitlines()
        assert [json.loads(line) for line in lines] == [s.to_dict() for s in specs]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"family": "nope", "n": 10}', "unknown family 'nope'"),
            ('{"family": "path", "n": 10, "bogus": 1}', "bogus"),
            ('{"n": 10}', "family"),
            ("[1, 2]", ""),
            ("not json", ""),
            ('{"family": "path", "n": 10.5}', "n must be an integer"),
        ],
    )
    def test_bad_line_names_its_place(self, tmp_path, line, message):
        path = tmp_path / "specs.jsonl"
        path.write_text('{"family": "path", "n": 10}\n\n' + line + "\n")
        with pytest.raises(ValueError, match="bad spec at ") as info:
            read_specs(path)
        assert f"{path}:3: " in str(info.value) and message in str(info.value)


class TestPlanSpecs:
    def test_structured_fraction_and_counts(self):
        specs = plan_specs(total=520, n_range=(200, 1000), seed=0)
        matrices = sum(1 + s.variants for s in specs)
        structured = sum(1 for s in specs if s.variants == 0)
        assert matrices >= 520
        assert abs(structured / matrices - 0.27) < 0.03
        assert all(s.family == "random_gnm" for s in specs if s.variants > 0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"total": 0}, "total must be positive"),
            ({"structured_fraction": 0.0}, "structured_fraction must lie in"),
            ({"structured_fraction": 1.0}, "structured_fraction must lie in"),
            ({"n_range": (1, 5)}, "n_range must satisfy"),
        ],
    )
    def test_rejects_bad_arguments(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            plan_specs(**kwargs)

    def test_deterministic(self):
        assert plan_specs(total=50, seed=4) == plan_specs(total=50, seed=4)
        assert plan_specs(total=50, seed=4) != plan_specs(total=50, seed=5)


def _sweep_cases():
    thin = GraphSpec("path", 400, seed=21, delta_range=(1e-4, 1e-3))
    # Once a false breakdown: stage 1 to class 7 drifts at iteration 2 and
    # its r'z underflows to 0 at 21, before a guard that waited a window
    # after drift could fire; it now ends at that drift.
    lucky = GraphSpec(
        "cycle", 439, diagonal_strategy="uniform_constant", constant=7.404224964402027
    )
    gnm = generate(GraphSpec("random_gnm", 150, seed=22, m_target=330))
    huge = from_triplets([(0, 0, 1e39), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)], 2)
    # Eigenvalues -2 and 4; b = A 1 lies in the eigenspace of -2.
    indefinite = from_triplets([(0, 0, 1.0), (0, 1, -3.0), (1, 1, 1.0)], 2, mirror=True)
    return {
        "default": (gnm, SolveConfig(tolerance=1e-10)),
        "jacobi": (gnm, SolveConfig(tolerance=1e-10, preconditioner="jacobi")),
        "absolute": (gnm, SolveConfig(tolerance=1e-10, residual_mode="absolute")),
        "max_iterations": (gnm, SolveConfig(tolerance=1e-10, max_iterations=1)),
        "stagnating": (generate(thin), SolveConfig(tolerance=1e-10)),
        "lucky_breakdown": (generate(lucky), SolveConfig(tolerance=1e-10)),
        "binary32_overflow": (huge, SolveConfig(tolerance=1e-10)),
        "indefinite": (indefinite, SolveConfig(tolerance=1e-10)),
    }


SWEEP_CASES = _sweep_cases()


class TestSweepAgainstReference:
    """The one-trajectory sweep against one two-stage solve per eps1."""

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_record_matches_independent_solves(self, case):
        A, config = SWEEP_CASES[case]
        grid = EpsilonGrid()
        got = label_matrix(A, ones_rhs(A), grid, config, "m", "g").to_dict()
        want = label_matrix_reference(A, ones_rhs(A), grid, config, "m", "g")
        reason, kind = got.pop("invalid_reason"), want.pop("invalid_reason")
        assert got == want
        assert reason == kind is None or reason.startswith(f"{kind}: ")

    def test_cases_cover_their_outcomes(self):
        grid = EpsilonGrid()

        def run(case):
            A, config = SWEEP_CASES[case]
            return sweep(A, ones_rhs(A), grid.values + (None,), 1e-10, 0.5, config)

        results, failure = run("stagnating")
        assert failure is None and "stagnated" in {r.stage1_status for r in results}
        results, failure = run("lucky_breakdown")
        assert failure is None and len(results) == len(grid.values) + 1
        results, failure = run("indefinite")
        assert isinstance(failure, CgBreakdownError) and results == []
        results, failure = run("max_iterations")
        assert isinstance(failure, Stage2NotConvergedError)
        results, failure = run("binary32_overflow")
        assert isinstance(failure, SinglePrecisionOverflowError) and results == []

    @pytest.mark.parametrize("case", ["default", "jacobi", "absolute", "stagnating"])
    def test_two_stage_solve_is_one_value_sweep(self, case):
        A, config = SWEEP_CASES[case]
        b = ones_rhs(A)
        results, failure = sweep(A, b, DEFAULT_GRID + (None,), 1e-10, 0.5, config)
        assert failure is None
        for r in results[:-1]:
            one = two_stage_solve(A, b, r.epsilon1, 1e-10, 0.5, config)
            assert (one.n1, one.n2) == (r.n1, r.n2)
            assert np.array_equal(one.x, r.x)
            n1, n2, x, p1, p2 = two_stage_reference(A, b, r.epsilon1, 1e-10, 0.5, config)
            assert (n1, n2) == (r.n1, r.n2) and np.array_equal(x, r.x)
            assert (p1, p2) == (r.stage1_spmv_calls, r.stage2_spmv_calls)

    def test_stage_two_runs_once_per_distinct_n1(self, monkeypatch):
        import mpcg.solver as solver

        A, config = SWEEP_CASES["default"]
        runs = []
        real = solver._run_cg

        def counting(M, *args):
            runs.append(M.dtype)
            return real(M, *args)

        monkeypatch.setattr(solver, "_run_cg", counting)
        results, failure = sweep(A, ones_rhs(A), DEFAULT_GRID + (None,), 1e-10, 0.5, config)
        assert failure is None
        assert runs.count(np.float32) == 1
        assert runs.count(np.float64) == len({r.n1 for r in results})
