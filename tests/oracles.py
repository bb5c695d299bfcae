"""Independent reference computations used only by the test suite.

Every oracle here deliberately avoids the library's own code paths:
matvecs run over raw triplets, distances come from scipy's csgraph or a
plain-Python BFS, and eigenvalues come from LAPACK on a dense copy.  The
exceptions are references for code that was replaced: they keep the
replaced algorithm and call the library only for what it kept, and
``from_triplets``, the tests' shorthand for a small matrix.
"""

import functools
import math
from collections import Counter, deque
from dataclasses import asdict, replace

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import dijkstra, shortest_path


def from_triplets(triplets, n, mirror=False, dtype=np.float64):
    """``from_coordinates`` of (row, col, value) triplets: int64 indices
    and ``dtype`` values, one entry per triplet."""
    from mpcg.sparse import from_coordinates

    triplets = list(triplets)
    rows = np.array([t[0] for t in triplets], dtype=np.int64)
    cols = np.array([t[1] for t in triplets], dtype=np.int64)
    vals = np.array([t[2] for t in triplets], dtype=dtype)
    return from_coordinates(rows, cols, vals, n, mirror)


def inorder_matvec(triplets, n, x):
    """Dense-free matvec accumulating per row in (row, col) order at x.dtype.

    Values are rounded to x.dtype first, mimicking a stored matrix at that
    precision, so results are bit-comparable against the CSR kernel.
    """
    cast = x.dtype.type
    out = np.zeros(n, dtype=x.dtype)
    for i, j, v in sorted(triplets, key=lambda t: (t[0], t[1])):
        out[i] = cast(out[i] + cast(cast(v) * x[j]))
    return out


def dense_of(A) -> np.ndarray:
    """Dense float64 copy built from the raw CSR arrays."""
    D = np.zeros((A.n, A.n))
    row_of = np.repeat(np.arange(A.n), np.diff(A.row_starts))
    D[row_of, A.col_indices] = A.values.astype(np.float64)
    return D


def eigenvalues_of(A) -> np.ndarray:
    return np.linalg.eigvalsh(dense_of(A))


def iteration_bound(kappa: float, epsilon: float) -> int:
    """Upper estimate ceil(sqrt(kappa)/2 * ln(2/eps)) on CG iterations."""
    if not kappa >= 1:
        raise ValueError("kappa must be at least 1")
    if not 0 < epsilon < 2:
        raise ValueError("epsilon must lie in (0, 2)")
    return math.ceil(0.5 * math.sqrt(kappa) * math.log(2.0 / epsilon))


def allpairs_distances(A) -> np.ndarray:
    """All-pairs unweighted BFS distances over the off-diagonal structure."""
    row_of = np.repeat(np.arange(A.n), np.diff(A.row_starts))
    off = A.col_indices != row_of
    adj = scipy.sparse.csr_matrix(
        (np.ones(int(off.sum())), (row_of[off], A.col_indices[off])),
        shape=(A.n, A.n),
    )
    return shortest_path(adj, method="D", unweighted=True)


def true_diameter(A) -> int:
    """Maximum finite pairwise distance; 0 for an edgeless graph."""
    d = allpairs_distances(A)
    finite = d[np.isfinite(d)]
    return int(finite.max()) if finite.size else 0


def bfs_distances(A, start) -> np.ndarray:
    """Plain-Python BFS hop counts over the off-diagonal structure; -1
    where ``start`` does not reach."""
    rs, cols = A.row_starts, A.col_indices
    dist = np.full(A.n, -1)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for j in cols[rs[v] : rs[v + 1]]:
            if dist[j] < 0:
                dist[j] = dist[v] + 1
                queue.append(j)
    return dist


def double_sweep_diameter(A) -> int:
    """Pseudo-diameter by its definition, one component at a time.

    Start at the component's minimum-degree vertex, sweep to its farthest
    vertex u, and take the largest distance from u; ties go to the
    smallest index.  The largest value over the components is returned.
    """
    degrees = np.diff(A.row_starts) - 1
    seen = np.zeros(A.n, dtype=bool)
    best = 0
    for root in range(A.n):
        if seen[root]:
            continue
        members = np.nonzero(bfs_distances(A, root) >= 0)[0]
        seen[members] = True
        start = members[np.argmin(degrees[members])]
        u = int(np.argmax(bfs_distances(A, start)))
        best = max(best, int(bfs_distances(A, u).max()))
    return best


def hop_distances_reference(graph, sources) -> np.ndarray:
    """Hop count from each vertex to the nearest of ``sources`` by one
    multi-source heap-based Dijkstra, O(m log n); inf where none reaches."""
    return dijkstra(graph, indices=sources, unweighted=True, min_only=True)


def first_per_component_reference(labels, count, key) -> np.ndarray:
    """For each component, the vertex of smallest ``key``, smallest index on
    ties, by a three-key sort, O(n log n)."""
    order = np.lexsort((np.arange(labels.size), key, labels))
    return order[np.searchsorted(labels[order], np.arange(count))]


def from_coordinates_reference(rows, cols, vals, n, mirror):
    """CSR assembly of coordinate arrays by a lexsort over int64 indices,
    O(m log m); the matrix is built and validated by ``SparseSymMatrix``,
    whose scipy container picks the index dtype.  Fewer mirrored entries
    than rows cannot hold a diagonal, and fail so before any other check
    of the entries."""
    from mpcg.errors import DuplicateEntryError, MissingDiagonalError
    from mpcg.sparse import SparseSymMatrix

    rows, cols = rows.astype(np.int64), cols.astype(np.int64)
    if rows.size == 0:
        raise ValueError("at least one triplet is required")
    if rows.min() < 0 or cols.min() < 0 or rows.max() >= n or cols.max() >= n:
        raise IndexError(f"triplet index out of range for n={n}")
    if mirror:
        off = rows != cols
        rows, cols = (
            np.concatenate([rows, cols[off]]),
            np.concatenate([cols, rows[off]]),
        )
        vals = np.concatenate([vals, vals[off]])
    if rows.size < n:
        raise MissingDiagonalError("every row needs an explicit diagonal entry")
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
    if np.any(dup):
        k = int(np.nonzero(dup)[0][0])
        raise DuplicateEntryError(f"position ({rows[k]}, {cols[k]}) appears twice")
    row_starts = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=row_starts[1:])
    return SparseSymMatrix(row_starts, cols, vals)


def dd_spd_triplets(n, rng, density=0.1, delta=(0.1, 2.0), signed=False):
    """Triplets (both halves) of a strictly diagonally dominant matrix.

    Off-diagonal weights are 1, or uniform in [-1, 1] when ``signed``; the
    diagonal exceeds the absolute row sum by a positive margin, so the
    matrix is SPD.
    """
    iu, ju = np.triu_indices(n, 1)
    m = max(1, min(int(density * iu.size), iu.size))
    pick = rng.choice(iu.size, size=m, replace=False)
    if signed:
        w = rng.uniform(-1.0, 1.0, m)
        w[w == 0] = 0.5
    else:
        w = np.ones(m)
    rowsum = np.zeros(n)
    triplets = []
    for i, j, v in zip(iu[pick], ju[pick], w):
        triplets.append((int(i), int(j), float(v)))
        triplets.append((int(j), int(i), float(v)))
        rowsum[i] += abs(v)
        rowsum[j] += abs(v)
    margins = rng.uniform(delta[0], delta[1], n)
    triplets.extend((v, v, float(rowsum[v] + margins[v])) for v in range(n))
    return triplets


def write_matrix_market_reference(A, path) -> None:
    """Matrix Market writer formatting one f-string per stored entry."""
    rs, cols, vals = A.row_starts, A.col_indices, A.values
    row_of = np.repeat(np.arange(A.n), np.diff(rs))
    keep = cols <= row_of
    lines = ["%%MatrixMarket matrix coordinate real symmetric"]
    lines.append(f"{A.n} {A.n} {int(keep.sum())}")
    for i, j, v in zip(row_of[keep], cols[keep], vals[keep]):
        lines.append(f"{i + 1} {j + 1} {v:.17g}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def two_stage_reference(A, b, epsilon1, epsilon2, mu, config, block=None):
    """(n1, n2, x, p1, p2) of a two-stage solve with its own stage 1 from
    zero, both stages run by ``cg_reference`` (with ``block`` as there);
    p1 and p2 count each stage's products: one per iteration, one for the
    initial residual and one per true residual its history holds, and in
    stage 1 the ``A d`` a ``d'Ad`` underflow gave up."""
    from mpcg.errors import Stage2NotConvergedError
    from mpcg.solver import _inverse_diagonal, no_stagnation
    from mpcg.sparse import downcast, downcast_vector, upcast_vector

    def inv_diag(M):
        return _inverse_diagonal(M) if config.preconditioner == "jacobi" else None

    b = np.asarray(b, dtype=np.float64)
    A32 = downcast(A)
    abandoned = []
    ((x1, n1, _, _, history1),) = cg_reference(
        A32, downcast_vector(b), None, config, inv_diag(A32), (epsilon1,), block=block,
        abandoned=abandoned)
    refine = no_stagnation(config)
    ((x, n2, _, status, history2),) = cg_reference(
        A, b, upcast_vector(x1), refine, inv_diag(A), (epsilon2,), block=block)
    if status != "converged":
        raise Stage2NotConvergedError(status)
    p1, p2 = (1 + n + len(true_residuals_of(h)) for n, h in ((n1, history1), (n2, history2)))
    return n1, n2, x, p1 + len(abandoned), p2


def label_matrix_reference(A, b, grid, config, matrix_id="", group_id="", spec=None):
    """``label_matrix`` by one independent two-stage solve per grid value,
    then a separate pure binary64 solve; returns the record's dict form,
    whose ``invalid_reason`` names only the exception class."""
    from mpcg.features import extract_features
    from mpcg.solver import cg, no_stagnation

    costs = []
    valid, reason = True, None
    for eps1 in grid.values:
        try:
            n1, n2, _, p1, p2 = two_stage_reference(A, b, eps1, grid.epsilon2, grid.mu, config)
        except Exception as exc:  # noqa: BLE001 - any solver failure voids the record
            valid, reason = False, type(exc).__name__
            break
        costs.append({"epsilon1": eps1, "n1": n1, "n2": n2, "cost": grid.mu * n1 + n2,
                      "p1": p1, "p2": p2})
    if valid:
        base = cg(A, b, None, no_stagnation(replace(config, tolerance=grid.epsilon2)))
        valid = base.status == "converged"
        if valid:
            costs.append({"epsilon1": None, "n1": 0, "n2": base.iterations,
                          "cost": float(base.iterations), "p1": 0, "p2": base.spmv_calls})
        else:
            reason = "Stage2NotConvergedError"
    label = i_opt = i_wrst = None
    if valid:
        grid_costs = [c["cost"] for c in costs[:-1]]
        i_opt, i_wrst = min(grid_costs), max(grid_costs)
        label = grid_costs.index(i_opt) + 1
    return {
        "matrix_id": matrix_id,
        "group_id": group_id,
        "spec": spec.to_dict() if spec else None,
        "features": asdict(extract_features(A)),
        "costs": costs,
        "label": label,
        "i_opt": i_opt,
        "i_wrst": i_wrst,
        "valid": valid,
        "invalid_reason": reason,
    }


def minimax_reference(train_features, queries):
    """Per-feature minima and maxima of ``train_features``, the training
    vectors and the ``queries`` each scaled onto [0, 1]^5 one vector at a
    time, as the regression layer did before it kept its bounds on the
    model: (mins, maxs, points, scaled queries).  A feature constant in
    training maps to 0.5 and an out-of-range value clamps."""
    mat = np.stack([f.as_array() for f in train_features])
    mins, maxs = mat.min(axis=0), mat.max(axis=0)
    span = maxs - mins
    degenerate = span == 0

    def apply(chi):
        scaled = (chi.as_array() - mins) / np.where(degenerate, 1.0, span)
        return np.clip(np.where(degenerate, 0.5, scaled), 0.0, 1.0)

    points = np.stack([apply(f) for f in train_features])
    return mins, maxs, points, [apply(q) for q in queries]


def knn_vote_reference(points, labels, k, q) -> int:
    """Majority class among the ``k`` points nearest ``q``, distance ties
    by training order, a tied vote to the smaller class number."""
    d2 = np.einsum("ij,ij->i", points - q, points - q)
    nearest = sorted(range(len(d2)), key=lambda i: (d2[i], i))[:k]
    votes = Counter(int(labels[i]) for i in nearest)
    return min(c for c, v in votes.items() if v == max(votes.values()))


def blocked_dot(u, v, block):
    """u'v as the left-to-right sum of the dots of consecutive ``block``-entry
    slices, at the vectors' precision."""
    parts = [u[k:k + block].dot(v[k:k + block]) for k in range(0, u.size, block)]
    return sum(parts[1:], parts[0])


def true_residuals_of(history) -> tuple:
    """The ``SolveResult.true_residuals`` entries after the initial one
    that match a ``cg_reference`` history: its non-NaN entries, each as
    ``(iteration, norm)``."""
    return tuple((k, float(v)) for k, v in enumerate(history, start=1) if not math.isnan(v))


def cg_reference(A, b, x0, config, inv_diag, tolerances, eager=False, norms=None,
                 block=None, abandoned=None):
    """The allocating CG loop that ``solver._run_cg`` replaced, one list
    entry per tolerance as (x, iterations, residual, status, history).

    Every vector operation builds a new array and products go through
    ``csr_matrix @ x``; the update order per iteration is alpha, x, r,
    beta, d.  The true residual norm and the recursive one (``sqrt(r'z)``,
    or ``sqrt(r'r)`` under Jacobi) are computed at every iteration; a
    schedule then decides which true residuals the stopping test sees.
    An unseen one is NaN in the history.

    - ``eager``: every one.
    - Otherwise samples: the last iteration max_iterations allows, an
      iteration whose r'z underflows and, in a run whose window fits in
      max_iterations (a guarded run), the iteration a window after the
      previous sample and the one where the recursive norm has fallen by
      ``SAMPLE_FACTOR`` since the previous sample.  A tolerance sees the
      samples and the iterations where the recursive norm is at or below
      it, and its history holds what it sees: a run to several tolerances
      tests what the next unmet one sees.
      The run ends "stagnated" at the first sample before the last
      iteration whose true residual is above the margin times the
      recursive norm (drift).

    Either way the run ends "underflow" at the first iteration whose r'z
    is below the smallest normal of the storage precision, and both stops
    come after the tolerances met there.  It also ends "underflow" where
    d'Ad is 0 but A d is not and the magnitudes |d|'|A d| lie below the
    smallest normal too: at the iterate before, whose true residual every
    tolerance then sees, after the tolerances that residual meets.  An A d
    of 0, a d'Ad of 0 from cancellation (magnitudes at or above the
    smallest normal) and any other d'Ad that is not positive and finite
    raise.

    ``norms``, a list, receives (true, recursive, r'z, sample) of every
    iteration, and ``abandoned``, a list, the iteration whose A d a d'Ad
    underflow gave up.  Inner products and norms are plain dots, or with an int
    ``block`` the ``blocked_dot`` sums the solver makes above its
    ``_DOT_BLOCK`` unknowns.
    """
    from mpcg.errors import CgBreakdownError
    from mpcg.solver import SAMPLE_FACTOR as factor
    from mpcg.solver import TRUE_RESIDUAL_MARGIN as margin
    from mpcg.sparse import _scipy_csr

    A_csr, b = _scipy_csr(A), np.asarray(b)
    dot = np.dot if block is None else functools.partial(blocked_dot, block=block)

    def norm(v):  # as np.linalg.norm computes it: sqrt(v'v)
        return float(np.sqrt(dot(v, v)))

    x = np.zeros(A.n, dtype=A.dtype) if x0 is None else np.array(x0, copy=True)
    max_iterations = config.max_iterations or 10 * A.n
    scale = norm(b) if config.residual_mode == "relative" else 1.0
    thresholds = [t * scale for t in tolerances]
    window = config.stagnation_window
    guarded = window <= max_iterations
    tiny = np.finfo(A.dtype).tiny  # a smaller r'z has underflowed

    r = b - A_csr @ x
    res = norm(r)
    d = inv_diag * r if inv_diag is not None else r.copy()
    rz = dot(r, d)
    steps, out = [], []  # (true, recursive, sample) of every iteration

    def history(t):  # the true residuals tolerance t sees, NaN elsewhere
        return np.array([v if s or rec <= t else math.nan for v, rec, s in steps])

    met, status = 0, "max_iterations"
    last_sample, anchor = 0, res
    for k in range(max_iterations + 1):
        sample, recursive = True, math.inf  # the initial residual
        if k > 0:
            Ad = A_csr @ d
            dAd = dot(d, Ad)
            if not np.isfinite(dAd) or dAd <= 0:
                if dAd != 0 or not Ad.any() or dot(np.abs(d), np.abs(Ad)) >= tiny:
                    raise CgBreakdownError(f"d'Ad = {dAd} at iteration {k}")
                if abandoned is not None:
                    abandoned.append(k)
                k, status = k - 1, "underflow"  # d'Ad underflowed: stop at x_{k-1}
                if steps:
                    res = steps[-1][0]
                    steps[-1] = (res, steps[-1][1], True)  # seen by every tolerance
                while met < len(thresholds) and res <= thresholds[met]:
                    out.append((x, k, res, "converged", history(thresholds[met])))
                    met += 1
                break
            alpha = rz / dAd
            x = x + alpha * d
            r = r - alpha * Ad
            z = inv_diag * r if inv_diag is not None else r
            rz_next = dot(r, z)
            beta = rz_next / rz
            d = z + beta * d
            rz = rz_next

            true_norm = norm(b - A_csr @ x)
            recursive = math.sqrt(dot(r, r) if inv_diag is not None else rz)
            sample = eager or k == max_iterations or rz < tiny
            if not sample and guarded and (
                    k - last_sample >= window or recursive <= anchor / factor):
                sample, last_sample, anchor = True, k, recursive
            if norms is not None:
                norms.append((true_norm, recursive, float(rz), sample))
            steps.append((true_norm, recursive, sample))
            if not (sample or recursive <= thresholds[met]):
                continue
            res = true_norm
        while (met < len(thresholds) and res <= thresholds[met]
               and (sample or recursive <= thresholds[met])):
            out.append((x, k, res, "converged", history(thresholds[met])))
            met += 1
        if met == len(thresholds):
            return out
        if rz < tiny:
            status = "underflow"
            break
        if not eager and sample and k < max_iterations and res > margin * recursive:
            status = "stagnated"
            break
    for t in thresholds[met:]:
        out.append((x, len(steps), res, status, history(t)))
    return out
