"""Output checks that recompute what they verify from raw arrays or from
properties of the problem, instead of comparing with stored output.

Every function records failures in a ``Checks`` collector rather than
raising, so one run reports all of them.
"""

from __future__ import annotations

import json
import sys

import numpy as np
import scipy.sparse
from scipy.sparse import csgraph

UNIT_ROUNDOFF = 2.0**-53


class Checks:
    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return not self.failures


def raw_matvec(A, x: np.ndarray) -> np.ndarray:
    """Binary64 y = A x straight from the CSR arrays, without scipy."""
    vals = A.values.astype(np.float64)
    return np.add.reduceat(vals * x[A.col_indices], A.row_starts[:-1])


def _rounding_allowance(A, x: np.ndarray, b: np.ndarray) -> float:
    """Bound on the rounding error of ``b - raw_matvec(A, x)``:
    gamma_k * || |A||x| + |b| || with k the longest row plus one."""
    k = int(np.diff(A.row_starts).max()) + 1
    gamma = k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)
    absA = np.add.reduceat(
        np.abs(A.values.astype(np.float64)) * np.abs(x[A.col_indices]), A.row_starts[:-1]
    )
    return gamma * float(np.linalg.norm(absA + np.abs(b)))


def dominance_margin(A) -> float:
    """min_i (a_ii - sum_{j != i} |a_ij|): a lower bound on lambda_min of a
    symmetric matrix, by Gershgorin."""
    rs, cols = A.row_starts, A.col_indices
    row_of = np.repeat(np.arange(A.n), np.diff(rs))
    vals = A.values.astype(np.float64)
    on_diag = cols == row_of
    diag = np.zeros(A.n)
    diag[row_of[on_diag]] = vals[on_diag]
    off = np.add.reduceat(np.where(on_diag, 0.0, np.abs(vals)), rs[:-1])
    return float((diag - off).min())


def check_solution(chk: Checks, A, b, x, eps2: float, what: str) -> None:
    """True residual within eps2*||b||, and the forward error within the
    residual bound ||x - 1|| <= (||b - Ax|| + ||b - A1||) / lambda_low for
    the b = A*1 right-hand side."""
    r = b - raw_matvec(A, x)
    slack = _rounding_allowance(A, x, b)
    res = float(np.linalg.norm(r))
    target = eps2 * float(np.linalg.norm(b))
    chk.expect(res <= target + slack, f"{what}: residual {res:.3e} > eps2*||b|| = {target:.3e}")
    ones = np.ones(A.n)
    c = float(np.linalg.norm(b - raw_matvec(A, ones)))
    lam_low = dominance_margin(A)
    chk.expect(lam_low > 0, f"{what}: matrix is not strictly diagonally dominant")
    if lam_low > 0:
        err = float(np.linalg.norm(x - ones))
        bound = (res + c + slack + _rounding_allowance(A, ones, b)) / lam_low
        chk.expect(err <= bound, f"{what}: ||x - 1|| = {err:.3e} exceeds {bound:.3e}")


def power_rayleigh(A, iterations: int, seed: int) -> float:
    """Rayleigh quotient after power iteration; a lower bound on lambda_max."""
    x = np.random.default_rng(seed).standard_normal(A.n)
    for _ in range(iterations):
        y = raw_matvec(A, x)
        x = y / np.linalg.norm(y)
    return float(x @ raw_matvec(A, x))


def offdiag_graph(A) -> scipy.sparse.csr_matrix:
    rs, cols = A.row_starts, A.col_indices
    row_of = np.repeat(np.arange(A.n), np.diff(rs))
    keep = cols != row_of
    return scipy.sparse.csr_matrix(
        (np.ones(int(keep.sum())), (row_of[keep], cols[keep])), shape=(A.n, A.n)
    )


def graph_diameter(A) -> tuple[int, bool]:
    """Largest finite BFS distance, and whether the graph is a forest."""
    G = offdiag_graph(A)
    dist = csgraph.shortest_path(G, method="D", unweighted=True, directed=False)
    diameter = int(dist[np.isfinite(dist)].max())
    components, _ = csgraph.connected_components(G, directed=False)
    forest = G.nnz // 2 == A.n - components
    return diameter, forest


def check_sample_records(chk: Checks, lines: list[str], grid, mu: float) -> int:
    """Cost model, label rule and cost ordering of every valid record.
    Returns how many records are valid."""
    valid = 0
    descending = sorted(grid, reverse=True)
    for line in lines:
        rec = json.loads(line)
        if not rec["valid"]:
            continue
        valid += 1
        mid = rec["matrix_id"]
        costs = rec["costs"]
        base = [c for c in costs if c["epsilon1"] is None]
        grid_costs = {c["epsilon1"]: c for c in costs if c["epsilon1"] is not None}
        chk.expect(len(base) == 1 and base[0]["n1"] == 0, f"{mid}: baseline entry must have N1 = 0")
        chk.expect(sorted(grid_costs) == sorted(grid), f"{mid}: cost table does not cover the grid")
        for c in costs:
            chk.expect(c["cost"] == mu * c["n1"] + c["n2"], f"{mid}: cost != mu*N1 + N2")
        ordered = [grid_costs[e]["cost"] for e in descending if e in grid_costs]
        if not ordered:
            continue
        best = min(ordered)
        label = ordered.index(best) + 1  # first minimum in descending eps1
        chk.expect(rec["label"] == label, f"{mid}: label {rec['label']} is not the argmin {label}")
        chk.expect(rec["i_opt"] == best, f"{mid}: i_opt is not the minimum grid cost")
        chk.expect(rec["i_wrst"] == max(ordered), f"{mid}: i_wrst is not the maximum grid cost")
        chk.expect(
            all(rec["i_opt"] <= c <= rec["i_wrst"] for c in ordered),
            f"{mid}: a grid cost lies outside [i_opt, i_wrst]",
        )
    return valid


def check_report(chk: Checks, report: dict, records: dict[str, dict], test_ids) -> None:
    """N_Opt <= N_kNN <= N_Wrst, with N_Opt and N_Wrst recomputed from the
    sample records of the model's test split."""
    n_opt, n_knn, n_wrst = report["n_opt"], report["n_knn"], report["n_wrst"]
    chk.expect(n_opt <= n_knn <= n_wrst, f"report: N_Opt {n_opt} <= N_kNN {n_knn} <= N_Wrst {n_wrst} fails")
    usable = [records[i] for i in test_ids if i in records and records[i]["valid"]]
    chk.expect(n_opt == sum(r["i_opt"] for r in usable), "report: N_Opt differs from the sample")
    chk.expect(n_wrst == sum(r["i_wrst"] for r in usable), "report: N_Wrst differs from the sample")
    chk.expect(report["ratio_knn_wrst"] == n_knn / n_wrst, "report: ratio is not N_kNN / N_Wrst")


def check_matrix_features(chk: Checks, mid: str, A, record: dict, hull) -> None:
    """Pseudo-diameter against the BFS diameter (equal on forests), and the
    combined Gershgorin hull against a dense eigensolver."""
    diameter, forest = graph_diameter(A)
    pd = record["features"]["pseudo_diameter"]
    chk.expect(pd <= diameter, f"{mid}: pseudo-diameter {pd} exceeds diameter {diameter}")
    if forest:
        chk.expect(pd == diameter, f"{mid}: pseudo-diameter {pd} != diameter {diameter} on a forest")
    eig = np.linalg.eigvalsh(A.toarray())
    tol = 64 * A.n * UNIT_ROUNDOFF * float(np.abs(eig).max())
    chk.expect(
        hull.lo - tol <= eig[0] and eig[-1] <= hull.hi + tol,
        f"{mid}: spectrum [{eig[0]:.6g}, {eig[-1]:.6g}] leaves hull [{hull.lo:.6g}, {hull.hi:.6g}]",
    )
    chk.expect(record["features"]["lambda_max"] == hull.hi, f"{mid}: lambda_max is not the hull top")
    chk.expect(
        (record["features"]["n"], record["features"]["nnz"]) == (A.n, A.nnz),
        f"{mid}: n / nnz differ from the regenerated matrix",
    )
