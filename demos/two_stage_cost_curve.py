"""Sweep the stage-1 tolerance on one matrix and watch the cost trade-off.

Stage 1 runs conjugate gradients in binary32: each iteration costs half a
binary64 iteration but rounding error grows faster, so pushing eps1 deeper
eventually stalls and stops paying.  The weighted cost mu*N1 + N2 exposes
the sweet spot.  Beside the iterations that the model charges, each stage
shows the matrix-vector products a run pays: one per iteration, plus one
per true residual it computes to decide where to stop.
"""

import numpy as np

from mpcg import EpsilonGrid, GraphSpec, generate
from mpcg.dataset import ones_rhs
from mpcg.solver import SolveConfig, cg, no_stagnation, sweep

# A random tree with a thin dominance margin: ill-conditioned enough that
# binary32 cannot reach the deepest tolerances.
spec = GraphSpec("tree_random", 600, seed=3, delta_range=(1e-3, 1e-2))
A = generate(spec)
b = ones_rhs(A)  # exact solution is the all-ones vector

grid = EpsilonGrid()
print(f"matrix: {spec.family}, n={A.n}, nnz={A.nnz}")
print(f"final tolerance eps2 = {grid.epsilon2:g}, mu = {grid.mu}\n")

baseline = cg(A, b, None, no_stagnation(SolveConfig(tolerance=grid.epsilon2)))
print(
    f"pure binary64 baseline: {baseline.iterations} iterations, "
    f"{baseline.spmv_calls} products\n"
)

# One sweep runs binary32 stage 1 once, stopping at each eps1 on its way.
results, failure = sweep(A, b, grid.values, grid.epsilon2, grid.mu)
if failure is not None:
    raise failure
print(f"{'eps1':>8} {'N1':>5} {'P1':>5} {'N2':>5} {'P2':>5} {'cost':>8}  stage-1 status")
for r in results:
    print(
        f"{r.epsilon1:8.0e} {r.n1:5d} {r.stage1_spmv_calls:5d} {r.n2:5d}"
        f" {r.stage2_spmv_calls:5d} {r.cost:8.1f}  {r.stage1_status}"
    )
best = min(results, key=lambda r: r.cost)  # the first of equal costs

saving = 100.0 * (baseline.iterations - best.cost) / baseline.iterations
print(
    f"\nbest eps1 = {best.epsilon1:g}: cost {best.cost:.1f} vs "
    f"{baseline.iterations} pure binary64 iterations ({saving:.0f}% cheaper)"
)
x_err = np.max(np.abs(best.x - 1.0))
print(f"max |x - 1| at the optimum: {x_err:.2e}")
