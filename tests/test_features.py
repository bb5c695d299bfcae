import time

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csgraph

from mpcg.dataset import GraphSpec, generate
from mpcg.errors import DegenerateIntervalError, NonpositiveDiagonalError
from mpcg.features import (
    EigenIntervalEstimate,
    _first_per_component,
    _hop_distances,
    _virtual_graph,
    Interval,
    eigen_estimates,
    extract_features,
    pseudo_diameter,
    spread,
)
from mpcg.sparse import SparseSymMatrix, _scipy_csr

from oracles import (
    dd_spd_triplets,
    double_sweep_diameter,
    eigenvalues_of,
    first_per_component_reference,
    from_triplets,
    hop_distances_reference,
    true_diameter,
)


def path_matrix(n, diag=3.0):
    trips = [(i, i, diag) for i in range(n)]
    for i in range(n - 1):
        trips += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
    return from_triplets(trips, n)


def cycle_matrix(n, diag=3.0):
    trips = [(i, i, diag) for i in range(n)]
    for i in range(n):
        j = (i + 1) % n
        trips += [(i, j, 1.0), (j, i, 1.0)]
    return from_triplets(trips, n)


def relabeled(A, perm):
    rs, cols, vals = A.row_starts, A.col_indices, A.values
    trips = []
    for i in range(A.n):
        for k in range(rs[i], rs[i + 1]):
            trips.append((int(perm[i]), int(perm[cols[k]]), float(vals[k])))
    return from_triplets(trips, A.n)


class TestPseudoDiameter:
    def test_path_exact(self):
        assert pseudo_diameter(path_matrix(5)) == 4

    def test_cycle_six(self):
        A = cycle_matrix(6)
        assert true_diameter(A) == 3
        assert pseudo_diameter(A) == 3

    def test_edgeless(self):
        A = from_triplets([(i, i, 1.0) for i in range(4)], 4)
        assert pseudo_diameter(A) == 0

    def test_exact_on_random_trees(self):
        for seed in range(30):
            spec = GraphSpec("tree_random", int(50 + 7 * seed), seed=seed)
            A = generate(spec)
            assert pseudo_diameter(A) == true_diameter(A)

    def test_lower_bound_on_random_graphs(self):
        for seed in range(30):
            n = 60 + 4 * seed
            spec = GraphSpec("random_gnm", n, seed=seed, m_target=int(1.4 * n))
            A = generate(spec)
            assert pseudo_diameter(A) <= true_diameter(A)

    def test_disconnected_reports_largest_component_value(self):
        # two paths of lengths 3 and 6 edges, no connection between them
        trips = []
        for i in range(4):
            trips.append((i, i, 3.0))
        for i in range(3):
            trips += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
        for i in range(4, 11):
            trips.append((i, i, 3.0))
        for i in range(4, 10):
            trips += [(i, i + 1, 1.0), (i + 1, i, 1.0)]
        A = from_triplets(trips, 11)
        assert pseudo_diameter(A) == 6

    def test_matches_loop_reference_on_general_graphs(self):
        # non-trees, where the start vertex of each component matters
        for seed in range(40):
            n = 50 + 5 * seed
            m = int(n * (0.7, 1.0, 1.4, 3.0)[seed % 4])
            A = generate(GraphSpec("random_gnm", n, seed=seed, m_target=m))
            assert pseudo_diameter(A) == double_sweep_diameter(A), f"seed {seed}"

    def test_edgeless_large_is_zero(self):
        # one component per vertex: a per-component sweep must not cost
        # a pass over the whole matrix per component
        n = 20_000
        A = from_triplets([(i, i, 1.0) for i in range(n)], n)
        t0 = time.perf_counter()
        assert pseudo_diameter(A) == 0
        assert time.perf_counter() - t0 < 1.0

    def test_block_diagonal_union_takes_largest_block_value(self):
        # non-trees, so each block's value depends on its own start vertex
        blocks = [
            generate(GraphSpec("random_gnm", n, seed=seed, m_target=m))
            for n, seed, m in [(40, 1, 70), (90, 2, 120), (60, 3, 200), (75, 4, 100)]
        ]
        A = union(*blocks)
        values = [pseudo_diameter(B) for B in blocks]
        assert len(set(values)) > 1
        assert pseudo_diameter(A) == max(values)

    def test_relabeling_invariance_on_trees(self):
        for seed in range(10):
            A = generate(GraphSpec("tree_random", 80, seed=seed))
            rng = np.random.default_rng(seed + 500)
            B = relabeled(A, rng.permutation(80))
            assert pseudo_diameter(A) == pseudo_diameter(B)

    def test_relabeling_on_general_graphs_stays_a_tight_lower_bound(self):
        # The sweep value can shift by a step when relabeling moves the
        # start vertex; it must remain a lower bound on the true diameter.
        for seed in range(10):
            A = generate(GraphSpec("random_gnm", 100, seed=seed, m_target=140))
            d_true = true_diameter(A)
            d0 = pseudo_diameter(A)
            rng = np.random.default_rng(seed + 900)
            B = relabeled(A, rng.permutation(100))
            d1 = pseudo_diameter(B)
            assert d0 <= d_true and d1 <= d_true
            assert abs(d0 - d1) <= 1


@st.composite
def multi_component_graphs(draw):
    """A random symmetric structure on n vertices with at most n - 2 edges,
    so at least two components, and a full diagonal."""
    n = draw(st.integers(2, 40))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = {(min(e), max(e)) for e in draw(st.lists(ends, max_size=n - 2)) if e[0] != e[1]}
    trips = [(i, i, 1.0 + n) for i in range(n)]
    trips += [t for i, j in edges for t in ((i, j, -1.0), (j, i, -1.0))]
    return from_triplets(trips, n)


class TestStrongComponents:
    """pseudo_diameter labels components as a directed graph's strong
    components, which on A's symmetric structure are its connected ones."""

    @settings(max_examples=200, deadline=None)
    @given(multi_component_graphs())
    def test_partition_and_diameter(self, A):
        count, labels = csgraph.connected_components(_scipy_csr(A), directed=False)
        strong, strong_labels = csgraph.connected_components(
            _scipy_csr(A), directed=True, connection="strong")
        assert strong == count >= 2
        # equal up to relabelling: the label pairs are a one-to-one map
        assert len(set(zip(labels.tolist(), strong_labels.tolist()))) == count
        assert pseudo_diameter(A) == double_sweep_diameter(A)


def union(*blocks):
    """Block-diagonal union of matrices: one component or more per block."""
    csr = scipy.sparse.block_diag([_scipy_csr(B) for B in blocks], format="csr")
    csr.sort_indices()
    return SparseSymMatrix(csr.indptr, csr.indices, csr.data)


def sweep_graphs():
    """Graphs for the sweep helpers: several components with isolated
    vertices, a star, a cycle, and random graphs and trees up to n = 5000."""
    isolated = from_triplets([(i, i, 1.0) for i in range(3)], 3)
    yield "components", union(
        isolated, path_matrix(7), cycle_matrix(5), isolated, generate(GraphSpec("star", 6)),
        generate(GraphSpec("random_gnm", 50, seed=4, m_target=30)),
    )
    yield "star", generate(GraphSpec("star", 40))
    yield "cycle", cycle_matrix(31)
    for n in (200, 1000, 5000):
        yield f"random_gnm {n}", generate(GraphSpec("random_gnm", n, seed=n, m_target=n))
        yield f"tree_random {n}", generate(GraphSpec("tree_random", n, seed=n))


class TestBreadthFirstSweeps:
    """The BFS sweep helpers against the Dijkstra and lexsort ones they replaced."""

    @pytest.mark.parametrize("name, A", list(sweep_graphs()))
    def test_double_sweep_matches_reference_helpers(self, name, A):
        count, labels = csgraph.connected_components(_scipy_csr(A), directed=False)
        degrees = A.row_lengths() - 1
        start = _first_per_component(labels, count, degrees)
        np.testing.assert_array_equal(start, first_per_component_reference(labels, count, degrees))
        dist = _hop_distances(_virtual_graph(A, start))
        np.testing.assert_array_equal(dist, hop_distances_reference(_scipy_csr(A), start))
        far = _first_per_component(labels, count, -dist)
        np.testing.assert_array_equal(far, first_per_component_reference(labels, count, -dist))
        last = _hop_distances(_virtual_graph(A, far))
        np.testing.assert_array_equal(last, hop_distances_reference(_scipy_csr(A), far))
        assert pseudo_diameter(A) == int(last.max())

    @pytest.mark.parametrize("name, A", list(sweep_graphs()))
    def test_several_sources_per_component(self, name, A):
        count, labels = csgraph.connected_components(_scipy_csr(A), directed=False)
        rng = np.random.default_rng(A.n)
        first = first_per_component_reference(labels, count, np.zeros(A.n))
        sources = np.union1d(first, rng.choice(A.n, size=1 + A.n // 10, replace=False))
        dist = _hop_distances(_virtual_graph(A, sources))
        np.testing.assert_array_equal(dist, hop_distances_reference(_scipy_csr(A), sources))

    @pytest.mark.parametrize("ties", [1, 2, 5, 1000])
    def test_first_per_component_with_ties(self, ties):
        rng = np.random.default_rng(ties)
        for count in (1, 7, 300):
            labels = rng.integers(0, count, 3000)
            labels[:count] = np.arange(count)  # every label present
            for key in (rng.integers(0, ties, 3000), -rng.integers(0, ties, 3000).astype(np.int32)):
                np.testing.assert_array_equal(
                    _first_per_component(labels, count, key),
                    first_per_component_reference(labels, count, key),
                )

    def test_long_path_pointer_doubling(self):
        # the deepest search tree: 99,999 levels, 17 doubling rounds
        A = generate(GraphSpec("path", 100_000))
        assert pseudo_diameter(A) == 99_999


class TestGershgorin:
    def test_identity(self):
        A = from_triplets([(i, i, 1.0) for i in range(5)], 5)
        est = eigen_estimates(A)
        assert est.basic == Interval(1.0, 1.0)
        assert est.scaled1 == Interval(1.0, 1.0) and est.scaled2 == Interval(1.0, 1.0)

    def test_subnormal_diagonal_entry(self):
        # 1/a_11 overflows to inf; row 1's diagonal term stays 0, not 0 * inf = NaN.
        A = from_triplets([(0, 0, 1.0), (1, 1, 1e-310), (2, 2, 2.0), (0, 2, 0.5), (2, 0, 0.5)], 3)
        with np.errstate(over="ignore", invalid="ignore"):
            est = eigen_estimates(A)
        assert est.scaled2 == Interval(1e-310, 3.0)
        assert est.combined == Interval(1e-310, 2.25)

    def test_two_by_two(self):
        A = from_triplets([(0, 0, 2), (0, 1, 1), (1, 0, 1), (1, 1, 2)], 2)
        est = eigen_estimates(A)
        assert est.basic == Interval(1.0, 3.0)
        ev = eigenvalues_of(A)
        assert est.basic.lo <= ev[0] and ev[-1] <= est.basic.hi
        # uniform diagonal: scaling is a no-op
        assert est.scaled1 == Interval(1.0, 3.0) and est.scaled2 == Interval(1.0, 3.0)

    def test_pure_diagonal(self):
        A = from_triplets([(i, i, float(2 + i)) for i in range(4)], 4)
        assert eigen_estimates(A).basic == Interval(2.0, 5.0)

    def test_scaled_hulls_4_1(self):
        A = from_triplets([(0, 0, 4), (0, 1, 1), (1, 0, 1), (1, 1, 1)], 2)
        est = eigen_estimates(A)
        assert est.scaled1 == Interval(-3.0, 5.0)
        assert est.scaled2 == Interval(0.0, 8.0)
        assert est.basic == Interval(0.0, 5.0)
        assert est.combined == Interval(0.0, 5.0)
        ev = eigenvalues_of(A)
        np.testing.assert_allclose(ev, [(5 - 13**0.5) / 2, (5 + 13**0.5) / 2])
        for hull in (est.basic, est.scaled1, est.scaled2, est.combined):
            assert hull.lo <= ev[0] and ev[-1] <= hull.hi

    def test_scaled_needs_positive_diagonal(self):
        A = from_triplets([(0, 0, -1.0)], 1)
        with pytest.raises(NonpositiveDiagonalError):
            eigen_estimates(A)

    def test_containment_on_random_matrices(self):
        for seed in range(60):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 50))
            A = from_triplets(
                dd_spd_triplets(n, rng, density=0.2, signed=bool(seed % 2)), n
            )
            est = eigen_estimates(A)
            ev = eigenvalues_of(A)
            assert est.combined.lo <= ev[0] + 1e-9
            assert ev[-1] <= est.combined.hi + 1e-9
            assert est.basic.lo <= est.combined.lo and est.combined.hi <= est.basic.hi


class TestSpread:
    def _est(self, lo, hi):
        iv = Interval(lo, hi)
        return EigenIntervalEstimate(iv, iv, iv, iv)

    def test_point_interval(self):
        assert spread(self._est(1.0, 1.0)) == 0.0

    def test_one_three(self):
        assert spread(self._est(1.0, 3.0)) == 0.5

    def test_zero_lower_end(self):
        assert spread(self._est(0.0, 5.0)) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateIntervalError):
            spread(self._est(-1.0, 1.0))


class TestExtractFeatures:
    def test_identity_four(self):
        A = from_triplets([(i, i, 1.0) for i in range(4)], 4)
        chi = extract_features(A)
        assert (chi.n, chi.nnz, chi.pseudo_diameter) == (4, 4, 0)
        assert chi.spread == 0.0 and chi.lambda_max == 1.0

    def test_path_three_with_diagonal_three(self):
        A = path_matrix(3, diag=3.0)
        chi = extract_features(A)
        assert (chi.n, chi.nnz, chi.pseudo_diameter) == (3, 7, 2)
        assert chi.spread == pytest.approx(4.0 / 6.0, abs=1e-15)
        assert chi.lambda_max == 5.0
        ev = eigenvalues_of(A)
        np.testing.assert_allclose(ev, [3 - 2**0.5, 3.0, 3 + 2**0.5])
        assert 1.0 <= ev[0] and ev[-1] <= 5.0

    def test_bounds_against_oracles_on_generated_matrices(self):
        for seed in range(10):
            spec = GraphSpec("random_gnm", 80, seed=seed, m_target=150)
            A = generate(spec)
            chi = extract_features(A)
            ev = eigenvalues_of(A)
            assert chi.pseudo_diameter <= true_diameter(A)
            assert chi.lambda_max >= ev[-1] - 1e-9
            est = eigen_estimates(A)
            assert est.combined.lo <= ev[0] + 1e-9

    def test_scale_invariance_of_spread(self):
        rng = np.random.default_rng(21)
        A = from_triplets(dd_spd_triplets(30, rng), 30)
        chi = extract_features(A)
        for c in (2.0, 3.0):
            scaled = from_triplets(
                [
                    (int(i), int(j), float(c * v))
                    for i, j, v in zip(
                        np.repeat(np.arange(A.n), np.diff(A.row_starts)),
                        A.col_indices,
                        A.values,
                    )
                ],
                A.n,
            )
            chi_c = extract_features(scaled)
            assert chi_c.spread == pytest.approx(chi.spread, rel=1e-12)
            assert chi_c.lambda_max == pytest.approx(c * chi.lambda_max, rel=1e-12)
            assert chi_c.pseudo_diameter == chi.pseudo_diameter

    def test_linear_time_growth(self):
        # median runtimes on doubling path graphs; linear cost doubles,
        # anything quadratic would quadruple
        sizes = [20_000, 40_000, 80_000]
        med = []
        for n in sizes:
            A = path_matrix(n)
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                extract_features(A)
                times.append(time.perf_counter() - t0)
            med.append(sorted(times)[1])
        assert med[2] / med[0] < 10.0
