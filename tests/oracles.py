"""Independent reference computations used only by the test suite.

Every oracle here deliberately avoids the library's own code paths:
matvecs run over raw triplets, distances come from scipy's csgraph or a
plain-Python BFS, and eigenvalues come from LAPACK on a dense copy.  The
exceptions are references for code that was replaced: they keep the
replaced algorithm and call the library only for what it kept.
"""

from collections import deque
from dataclasses import asdict, replace

import numpy as np
import scipy.sparse
from scipy.sparse.csgraph import shortest_path


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


def two_stage_reference(A, b, epsilon1, epsilon2, mu, config):
    """(n1, n2, x) of a two-stage solve with its own stage 1 from zero."""
    from mpcg.errors import Stage2NotConvergedError
    from mpcg.solver import cg, no_stagnation
    from mpcg.sparse import downcast, downcast_vector, upcast_vector

    b = np.asarray(b, dtype=np.float64)
    stage1 = cg(
        downcast(A), downcast_vector(b), None, replace(config, tolerance=epsilon1)
    )
    x0 = upcast_vector(stage1.x)
    stage2 = cg(A, b, x0, no_stagnation(replace(config, tolerance=epsilon2)))
    if stage2.status != "converged":
        raise Stage2NotConvergedError(stage2.status)
    return stage1.iterations, stage2.iterations, stage2.x


def label_matrix_reference(A, b, grid, config, matrix_id="", group_id="", spec=None):
    """``label_matrix`` by one independent two-stage solve per grid value,
    then a separate pure binary64 solve; returns the record's dict form."""
    from mpcg.features import extract_features
    from mpcg.solver import cg, no_stagnation

    costs = []
    valid = True
    for eps1 in grid.values:
        try:
            n1, n2, _ = two_stage_reference(A, b, eps1, grid.epsilon2, grid.mu, config)
        except Exception:  # noqa: BLE001 - any solver failure voids the record
            valid = False
            break
        costs.append({"epsilon1": eps1, "n1": n1, "n2": n2, "cost": grid.mu * n1 + n2})
    if valid:
        base = cg(A, b, None, no_stagnation(replace(config, tolerance=grid.epsilon2)))
        valid = base.status == "converged"
        if valid:
            costs.append(
                {"epsilon1": None, "n1": 0, "n2": base.iterations, "cost": float(base.iterations)}
            )
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
    }


def cg_reference(A, b, x0, config, inv_diag, tolerances):
    """The allocating CG loop that ``solver._run_cg`` replaced, one list
    entry per tolerance as (x, iterations, residual, status, history).

    Every vector operation builds a new array and products go through
    ``csr_matrix @ x``; the update order per iteration is alpha, x, r,
    beta, d, and the stopping test uses the recomputed true residual.
    """
    from mpcg.errors import CgBreakdownError

    A_csr, b = A._csr, np.asarray(b)
    x = np.zeros(A.n, dtype=A.dtype) if x0 is None else np.array(x0, copy=True)
    max_iterations = config.max_iterations or 10 * A.n
    scale = float(np.linalg.norm(b)) if config.residual_mode == "relative" else 1.0
    thresholds = [t * scale for t in tolerances]

    r = b - A_csr @ x
    res = float(np.linalg.norm(r))
    d = inv_diag * r if inv_diag is not None else r.copy()
    rz = np.dot(r, d)
    history, bests, out = [], [res], []
    met, status = 0, "max_iterations"
    for k in range(max_iterations + 1):
        if k > 0:
            Ad = A_csr @ d
            dAd = np.dot(d, Ad)
            if not np.isfinite(dAd) or dAd <= 0:
                raise CgBreakdownError(f"d'Ad = {dAd} at iteration {k}")
            alpha = rz / dAd
            x = x + alpha * d
            r = r - alpha * Ad
            z = inv_diag * r if inv_diag is not None else r
            rz_next = np.dot(r, z)
            beta = rz_next / rz if rz != 0 else z.dtype.type(0)
            d = z + beta * d
            rz = rz_next

            res = float(np.linalg.norm(b - A_csr @ x))
            history.append(res)
            bests.append(min(bests[-1], res))
        while met < len(thresholds) and res <= thresholds[met]:
            out.append((x, k, res, "converged", np.array(history)))
            met += 1
        if met == len(thresholds):
            return out
        if (
            k >= config.stagnation_window
            and bests[k] > config.stagnation_factor * bests[k - config.stagnation_window]
        ):
            status = "stagnated"
            break
    for _ in thresholds[met:]:
        out.append((x, len(history), res, status, np.array(history)))
    return out
