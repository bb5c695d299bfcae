"""Fast-computable matrix features: five numbers, all in O(nnz) time.

The feature vector of a matrix is (n, nnz, pseudo-diameter, eigenvalue
spread estimate, maximum-eigenvalue estimate).  The pseudo-diameter comes
from a double sweep of scipy's compiled breadth-first search over the
matrix structure, every component at once from one virtual source, with
hop counts read off the search tree by pointer doubling; the two eigenvalue
estimates come from Gershgorin discs of the matrix itself and of two
diagonal rescalings of it.  None of these touch an eigensolver.  csgraph,
which brings scipy.sparse.linalg and scipy.linalg with it, is imported by
the functions that search a graph, so only a command that computes
features loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    DegenerateIntervalError,
    EmptyIntersectionError,
    NonpositiveDiagonalError,
    check_fields,
)
from .sparse import SparseSymMatrix, _entry_rows, _scipy_csr

if TYPE_CHECKING:
    import scipy.sparse

__all__ = [
    "Interval",
    "EigenIntervalEstimate",
    "FeatureVector",
    "pseudo_diameter",
    "eigen_estimates",
    "spread",
    "extract_features",
]


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float


@dataclass(frozen=True)
class EigenIntervalEstimate:
    """Gershgorin hulls of A and of its two diagonal rescalings.

    ``combined`` is the intersection of the three hulls; for a symmetric
    matrix with positive diagonal it still contains the whole spectrum.
    """

    basic: Interval
    scaled1: Interval
    scaled2: Interval
    combined: Interval


@dataclass(frozen=True)
class FeatureVector:
    """The five features; a count that is no int, or a spread or
    ``lambda_max`` that is no finite number, raises ValueError."""

    n: int
    nnz: int
    pseudo_diameter: int
    spread: float
    lambda_max: float

    def __post_init__(self):
        check_fields(self, ("n", "nnz", "pseudo_diameter"), ("spread", "lambda_max"))

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.n, self.nnz, self.pseudo_diameter, self.spread, self.lambda_max],
            dtype=np.float64,
        )


def _virtual_graph(A: SparseSymMatrix, sources: np.ndarray) -> scipy.sparse.csr_matrix:
    """A's structure plus a vertex n joined to each of ``sources``, its last
    row; csgraph reads only the structure, so the values are ones."""
    import scipy.sparse

    m = A.nnz + sources.size
    indices = np.concatenate([A.col_indices, sources.astype(A.col_indices.dtype)])
    indptr = np.append(A.row_starts, m)
    return scipy.sparse.csr_matrix((np.ones(m), indices, indptr), shape=(A.n + 1, A.n + 1))


def _hop_distances(graph: scipy.sparse.csr_matrix) -> np.ndarray:
    """Hop count from each vertex to the nearest source of a
    ``_virtual_graph``, whose sources must hold a vertex of every component.

    One breadth-first search from the virtual vertex n reaches every
    vertex; its depth in the search tree, less one, is the distance.
    Depths come from the predecessors by pointer doubling: after round r
    each vertex holds its ancestor 2**r levels up and the hops to it, so
    log2(depth) vectorised rounds reach the root.
    """
    from scipy.sparse import csgraph

    n = graph.shape[0] - 1
    _, up = csgraph.breadth_first_order(graph, n, directed=True, return_predecessors=True)
    up[n] = n
    hops = np.ones(n + 1, dtype=up.dtype)
    hops[n] = 0
    while up.min() != n:
        hops += hops.take(up)
        up = up.take(up)
    return hops[:n] - 1


def _first_per_component(labels: np.ndarray, count: int, key: np.ndarray) -> np.ndarray:
    """For each component, the vertex of smallest ``key``, smallest index on
    ties, in O(n): the least key per label, then the least index among the
    vertices that hold it."""
    least = np.full(count, key.max(), dtype=key.dtype)
    np.minimum.at(least, labels, key)
    (candidates,) = np.nonzero(key == least[labels])
    first = np.full(count, labels.size, dtype=candidates.dtype)
    np.minimum.at(first, labels[candidates], candidates)
    return first


def pseudo_diameter(A: SparseSymMatrix) -> int:
    """Double-sweep estimate of the graph diameter, never exceeding it.

    In every connected component the sweep starts from the minimum-degree
    vertex (smallest index on ties), finds a farthest vertex u (smallest
    index on ties), then measures the distance from u to its own farthest
    vertex.  Each sweep covers all components at once, as one breadth-first
    search in scipy's csgraph of one ``_virtual_graph``, A's structure with
    a vertex joined to every component's source, so the whole estimate is
    O(nnz) plus log2(diameter) vectorised O(n) rounds.  Exact on trees.
    The largest value over the components is returned; a matrix with no
    off-diagonal entries has pseudo-diameter 0.
    """
    from scipy.sparse import csgraph

    # On A's symmetric structure: no transpose, unlike directed=False
    count, labels = csgraph.connected_components(
        _scipy_csr(A), directed=True, connection="strong")
    degrees = A.row_lengths() - 1  # diagonal entry is always present
    graph = _virtual_graph(A, _first_per_component(labels, count, degrees))
    far = _first_per_component(labels, count, -_hop_distances(graph))
    graph.indices[A.nnz:] = far  # row n, one source per component again
    return int(_hop_distances(graph).max())


def _hull(centers: np.ndarray, radii: np.ndarray) -> Interval:
    return Interval(float(np.min(centers - radii)), float(np.max(centers + radii)))


def eigen_estimates(A: SparseSymMatrix) -> EigenIntervalEstimate:
    """Gershgorin hulls of A and of its two diagonal rescalings, and their
    intersection.

    ``basic`` is the hull of the plain discs |x - a_ii| <= sum_{j!=i} |a_ij|.
    The rescalings are diagonal similarities: ``scaled1`` has radius
    (1/a_ii) * sum_{j!=i} a_jj |a_ij| and ``scaled2`` a_ii * sum_{j!=i}
    |a_ij| / a_jj, so both need a positive diagonal.  One |A| at binary64,
    its diagonal set to 0 through a row index per entry, serves all three."""
    d = A.diagonal().astype(np.float64)
    if np.any(d <= 0):
        raise NonpositiveDiagonalError("diagonal scaling needs diag > 0")
    cols, starts = A.col_indices, A.row_starts[:-1]
    on_diag = np.flatnonzero(cols == _entry_rows(A))  # one entry per row
    offdiag = np.abs(A.values, dtype=np.float64)
    offdiag[on_diag] = 0.0
    over_d = offdiag * (1.0 / d)[cols]
    over_d[on_diag] = 0.0  # 0 * inf where a subnormal a_ii has no finite 1/a_ii
    basic = _hull(d, np.add.reduceat(offdiag, starts))
    scaled1 = _hull(d, np.add.reduceat(offdiag * d[cols], starts) / d)
    scaled2 = _hull(d, np.add.reduceat(over_d, starts) * d)
    lo = max(basic.lo, scaled1.lo, scaled2.lo)
    hi = min(basic.hi, scaled1.hi, scaled2.hi)
    if lo > hi:
        raise EmptyIntersectionError(f"hulls do not intersect: [{lo}, {hi}]")
    return EigenIntervalEstimate(basic, scaled1, scaled2, Interval(lo, hi))


def spread(estimate: EigenIntervalEstimate) -> float:
    """|hi - lo| / |hi + lo| of the combined interval, a scale-free number.

    No clamping: a combined interval reaching below zero simply yields a
    spread of 1 or more, which is still a usable regression feature.
    """
    lo, hi = estimate.combined.lo, estimate.combined.hi
    if hi + lo == 0:
        raise DegenerateIntervalError("interval endpoints cancel")
    return abs(hi - lo) / abs(hi + lo)


def extract_features(A: SparseSymMatrix) -> FeatureVector:
    """Assemble the five-number feature vector in O(nnz) total time."""
    estimate = eigen_estimates(A)
    return FeatureVector(
        n=A.n,
        nnz=A.nnz,
        pseudo_diameter=pseudo_diameter(A),
        spread=spread(estimate),
        lambda_max=estimate.combined.hi,
    )
