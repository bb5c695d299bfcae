"""Conjugate gradient, Jacobi-preconditioned CG, and the two-stage sweep.

A two-stage solve first solves the system in binary32 to a loose
tolerance eps1 from a zero start, then refines the upcast result in
binary64 to the final tolerance eps2.  Its cost is charged as
``mu * N1 + N2``: reduced-precision iterations count a fraction ``mu``
(default one half) of a full-precision iteration.  ``sweep`` solves for
a whole grid of eps1 at once.  The binary32 run to one eps1 is a prefix
of the run to any smaller one, so stage 1 runs once and stops at each
eps1 on its way; stage 2 runs once per distinct stage-1 iteration count.
``two_stage_solve`` is its one-value case.

The stopping test always uses the true residual ``b - A x``, never the
recursively updated one: in binary32 the recursion drifts away from the
truth, and the stopping decision is what the whole eps1 trade-off rests
on.  A run recomputes it only where a decision needs it.  Every run
tests it where the recursive norm is at or below a threshold, on its
last iteration, and where ``r'z`` underflows,
below the smallest normal of the storage precision (``np.finfo(dtype).tiny``).
There it ends "underflow": a subnormal ``r'z`` has lost its relative
precision, the next ``d'Ad``, of its order, may underflow to 0, and that
would be no sign of an operand that is not SPD.  A run
whose stagnation guard can never fire, ``stagnation_window >
max_iterations``, tests it nowhere else: every ``no_stagnation`` run
(binary64 stage 2 and the pure binary64 baseline), and any run whose
``max_iterations`` is below its window, such as stage 1 at the default
``10 n`` on a matrix with ``n <= 2``.  A guarded run (binary32 stage 1 by
default) also samples it ``stagnation_window`` iterations after its
previous sample, and where the recursive norm has fallen by
``SAMPLE_FACTOR`` (10) since then.  It ends "stagnated" at the first
sample that shows drift, a true residual more than
``TRUE_RESIDUAL_MARGIN`` (2) times the recursive norm.  By then the true
residual has levelled off near the attainable accuracy of the
precision, while the recursive norm keeps
falling (Greenbaum, "Estimating the attainable accuracy of recursively
computed residual methods", SIAM J. Matrix Anal. Appl. 18, 1997), so the
recursive norm alone would never show the stall.  Without drift the
guard cannot fire, so a run whose true and recursive residuals level off
together runs on to max_iterations.

Samples read nothing of the thresholds, a test counts for a threshold
only where a run to that threshold alone would make it, and a run ends
at drift or underflow only after the thresholds its test there meets.
So each result of a run to several thresholds equals a run to its own
threshold alone, its history and product count included, since it keeps
only the tests that run makes: the stage 1 of every eps1 of a sweep is
the stage 1 ``two_stage_solve`` runs to it.  A run pays one
matrix-vector product per untested iteration instead of two, and records
nothing for it: its history, ``SolveResult.true_residuals``, is the true
residuals it computed, each with its iteration, and its product count
follows from that.  No recursive norm stands in for an untested one, since the two
part ways (above).  Its iterates are those of an
every-iteration test, so an unguarded run stops where that test would,
unless the true residual meets the threshold while the recursive one is
above it; then it stops later, never earlier.  A test above a threshold
could stop a run only where the true residual lies below the recursive
one, and that buys little: in binary32 the true residual lies above the
recursive one once they part (Greenbaum, above), and in binary64 the
two agree down to eps2 = 1e-10, since the gap between them analysed by
van der Vorst and Ye, "Residual replacement strategies for Krylov
subspace iterative methods", SIAM J. Sci. Comput. 22 (2000), stays far
below that.  A binary64 run on thin-margin ``grid2d`` or ``tree_random``
systems of 10^4 or 10^5 unknowns makes N + 2 products.

Every inner product of a run, the norm of ``b`` included, is summed in a
fixed order, so the iterates do not depend on the BLAS thread count.
OpenBLAS splits a binary64 ``dot`` longer than about 10^4 entries across
threads, and the split changes the rounding of the sum.  A run on more
than ``_DOT_BLOCK`` (8192) unknowns therefore sums the BLAS dots of
consecutive 8192-entry blocks from left to right; each block is short
enough to run on one thread.  A run on at most 8192 unknowns makes one
plain ``dot``.  A fixed order is the simplest of the reproducible
reductions surveyed by Demmel and Nguyen, "Parallel reproducible
summation", IEEE Trans. Computers 64 (2015); it holds for any thread
count, though not across BLAS builds.  It also saves the hand-off of
each dot to a second thread, which at n = 10^5 costs more than it saves.

A run on at most ``_DOT_BLOCK`` unknowns makes every level-1 step with
scipy's BLAS (Lawson, Hanson, Kincaid and Krogh, "Basic Linear Algebra
Subprograms for Fortran usage", ACM Trans. Math. Softw. 5, 1979), each
call about half the cost of the numpy call it replaces: at these sizes an
iteration costs mostly call overhead.  ``dot`` makes every inner product,
with numpy's bits on the pinned wheels (a test checks it), and ``copy``
from a zero vector clears a product's buffer.  ``x + alpha d`` is
``scal(alpha, copy(d, t))``, then ``axpy`` onto x; ``r - alpha Ad`` and a
true residual ``A x - b``, of the norm of ``b - A x``, are ``axpy`` with
``a = -1``; ``z + beta d`` is ``axpy`` of z onto ``scal(beta, d)``.
``scal`` rounds one IEEE product per entry, and ``axpy`` with ``a = +-1``
one sum or difference, since ``1 x`` is exact.  ``dot`` returns a Python
float, so a binary32 run divides alpha and beta in binary64 and ``scal``
rounds the quotient to the binary32 one: double rounding is innocuous for
division, as 53 >= 2 * 24 + 2 (Figueroa, "When is double rounding
innocuous?", ACM SIGNUM Newsletter 30, 1995).  ``||b||`` and residual
norms keep their storage-precision root.  So the iterates keep their bits
in both precisions.  Larger runs keep numpy's ``fill``, ufuncs and
``_blocked_dot``: OpenBLAS splits an ``axpy`` of more than 10^4 entries
across threads, which made binary64 CG on 10^5 unknowns slower, and
8192-entry blocked ``scal`` and ``axpy`` calls were slower there too (one
iteration's updates took 263-266 against 240-249 us in binary64, 113-141
against 89-104 us in binary32, medians of 15 rounds on a 2-core host).
So the iterates rest on the BLAS builds of numpy and scipy both.
scipy's BLAS is imported by the first CG run, not by this module, so a
command that solves nothing starts without scipy.

A solve's set-up, which ``mu * N1 + N2`` does not charge, is paid as
rarely as it can be.  Per precision, once per process: the four BLAS
routines and the smallest normal (``_level1``).  Per stage-1 config and
eps2: the stage-1 config and the ``no_stagnation`` stage-2 one
(``_stage_configs``, a small cache of frozen values).  Per sweep: the
check of ``b``, the binary32 copies of A (``downcast``, which shares A's
index arrays and builds no scipy object) and of b, and one stage-1 run,
which takes those operands unchecked.  Per ``cg`` call, each stage 2 and
the baseline among them: the check of its operands.  Per run: the
product ``_accumulate_product`` binds and the run's buffers.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import cache, lru_cache

import numpy as np

from .errors import (
    CgBreakdownError,
    DimensionMismatchError,
    NonpositiveDiagonalError,
    PrecisionMismatchError,
    Stage2NotConvergedError,
    check_fields,
)
from .sparse import (
    SparseSymMatrix,
    _accumulate_product,
    downcast,
    downcast_vector,
    spmv,  # noqa: F401 - not called here; perfbench's tracer test reads solver.spmv
    upcast_vector,
)

# A sampled true residual more than this factor above the recursive norm
# is drift.
TRUE_RESIDUAL_MARGIN = 2.0

# Before drift a guarded run samples the true residual each time the
# recursive norm has fallen by this factor since its last sample.
SAMPLE_FACTOR = 10.0

# Entries per BLAS dot in a run on more than this many unknowns; below
# the length at which OpenBLAS splits a dot across threads.
_DOT_BLOCK = 8192

__all__ = [
    "SolveConfig",
    "SolveResult",
    "TwoStageResult",
    "cg",
    "two_stage_solve",
    "sweep",
    "no_stagnation",
    "cost",
]


@dataclass(frozen=True)
class SolveConfig:
    """Stopping and safeguard parameters for a single CG run.

    ``max_iterations=None`` resolves to ``10 * n`` at solve time.
    ``stagnation_window`` is the guard's sampling cadence: the run samples
    the true residual at least once per window and is declared stagnated
    at the first sample that has drifted from the recursive residual;
    binary32 runs can stall above a tight tolerance forever, and an
    unbounded loop would poison every sweep.  The module notes say where
    else it samples.  A window longer than max_iterations switches the
    guard off.  The tolerance must be finite and both counts plain ints.
    """

    tolerance: float
    max_iterations: int | None = None
    preconditioner: str = "none"
    residual_mode: str = "relative"
    stagnation_window: int = 25

    def __post_init__(self):
        if not 0 < self.tolerance < math.inf:
            raise ValueError("tolerance must be positive and finite")
        check_fields(self, ("max_iterations", "stagnation_window"), optional=("max_iterations",))
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.preconditioner not in ("none", "jacobi"):
            raise ValueError("preconditioner must be 'none' or 'jacobi'")
        if self.residual_mode not in ("relative", "absolute"):
            raise ValueError("residual_mode must be 'relative' or 'absolute'")
        if self.stagnation_window < 1:
            raise ValueError("stagnation_window must be at least 1")


@dataclass
class SolveResult:
    """One CG run to one tolerance.

    ``true_residuals`` holds one ``(k, ||b - A x_k||)`` pair per true
    residual the run computed up to this result, in order: the initial
    one at ``k = 0``, then one per tested iteration (see the module notes
    on when a run tests).  An untested iteration has no entry.  The last
    entry is always at ``iterations``, and its norm is
    ``final_residual_norm``.  ``spmv_calls`` counts the matrix-vector
    products up to this result: one per iteration and one per entry.
    """

    x: np.ndarray
    iterations: int
    final_residual_norm: float
    status: str  # converged | max_iterations | stagnated | underflow (r'z below tiny)
    true_residuals: tuple[tuple[int, float], ...]

    @property
    def spmv_calls(self) -> int:
        # One A d per iteration, one b - A x per test, b - A x0 included.
        return self.iterations + len(self.true_residuals)


@dataclass
class TwoStageResult:
    """One two-stage solve.  ``stage1_seconds`` is the wall time of the
    binary32 operands and of stage 1 up to this eps1, the time a run to
    this eps1 alone would take; ``stage2_seconds`` is the wall time of
    this result's stage 2, shared with every eps1 of the same N1.  The
    pure binary64 baseline spends 0 seconds in stage 1."""

    x: np.ndarray
    n1: int
    n2: int
    epsilon1: float
    epsilon2: float
    mu: float
    cost: float
    stage1_status: str
    stage2_status: str
    final_residual_norm: float
    stage1_spmv_calls: int
    stage2_spmv_calls: int  # of the stage 2 that eps1 with one N1 share
    stage1_seconds: float
    stage2_seconds: float


def _check_operands(A: SparseSymMatrix, b, x0):
    """b and a fresh copy of x0 (zeros for None), the operands ``_run_cg``
    takes; ``_check_vector`` checks each one."""
    b = _check_vector(A, "b", b)
    x = np.zeros(A.n, dtype=A.dtype) if x0 is None else _check_vector(A, "x0", x0).copy()
    return b, x


def _check_vector(A: SparseSymMatrix, name: str, v) -> np.ndarray:
    """v as a contiguous vector of length n at A's dtype and finite, else
    an error naming it."""
    v = np.ascontiguousarray(v)  # a strided dot may round differently
    if v.ndim != 1 or v.size != A.n:
        raise DimensionMismatchError(f"{name} must have length {A.n}")
    if v.dtype != A.dtype:
        raise PrecisionMismatchError(f"{name} is {v.dtype}, matrix stores {A.dtype}")
    _check_finite(name, v)
    return v


def _check_finite(name: str, v: np.ndarray) -> None:
    """A NaN or Inf operand is an input error, not a breakdown of CG."""
    finite = np.isfinite(v)
    if not finite.all():
        k = int(finite.argmin())
        raise ValueError(f"{name}[{k}] = {v[k]} is not finite")


def _blocked_dot(u: np.ndarray, v: np.ndarray):
    """u'v as the left-to-right sum of the BLAS dots of consecutive
    ``_DOT_BLOCK``-entry blocks, at the vectors' precision."""
    total = u[:_DOT_BLOCK].dot(v[:_DOT_BLOCK])
    for k in range(_DOT_BLOCK, u.size, _DOT_BLOCK):
        total += u[k:k + _DOT_BLOCK].dot(v[k:k + _DOT_BLOCK])
    return total


@cache
def _level1(dtype: np.dtype):
    """scipy's BLAS ``axpy``, ``scal``, ``copy`` and ``dot`` at ``dtype``
    and its smallest normal, looked up on the first run at that precision."""
    from scipy.linalg.blas import get_blas_funcs  # deferred: see the module notes

    axpy, scal, copy, dot = get_blas_funcs(("axpy", "scal", "copy", "dot"), dtype=dtype)
    return axpy, scal, copy, dot, float(np.finfo(dtype).tiny)


def _run_cg(A, b, x, config: SolveConfig, inv_diag, tolerances):
    """Yield one SolveResult per tolerance of the descending ``tolerances``:
    the first tested iterate of one CG run that meets it, or the last
    iterate if the run ends first.  Each result equals a separate run to
    its tolerance alone.

    ``b`` and ``x``, the start, are operands as ``_check_operands`` gives
    them, unchecked here; x is updated in place.
    ``inv_diag`` is None for plain CG and 1/diag for Jacobi.  Every vector
    operation runs at the matrix's storage precision.  The update order per
    iteration is alpha, x, r, beta, d.  The vectors live in buffers
    allocated once per run and updated in place, each step rounding as the
    allocating expression in its comment.  Up to ``_DOT_BLOCK`` unknowns
    every level-1 step is a scipy BLAS call, above a numpy one (see the
    module notes).  Every product (the initial residual, each ``A d`` and
    each true residual) zeroes its buffer and calls the one product
    ``_accumulate_product`` gives for A, the kernel ``spmv`` runs too, so it
    holds the same bits.  ``history`` holds the ``(k, norm)`` pair of every
    test, and ``made_at`` the recursive norm it was made at, 0 where it
    counts for every threshold; an untested iteration records nothing.  A
    yielded result holds a copy of x and the tests of ``history`` that a
    run to its tolerance alone makes: those made at or below it.

    The module notes give the policy for testing the true residual.  Its
    names here: ``recursive`` is ``sqrt(r'r)``, ``target`` is the next
    unmet threshold (``-inf`` once all are met), and ``sampled_at`` and
    ``anchor`` are the iteration and recursive norm of the last sample.
    Only a sample can show drift: a test at or below a threshold is no
    sample, and one on the last iteration or where ``r'z`` underflows has
    no recursive norm (``inf``).  A test at a sample, on the last
    iteration or where ``r'z`` underflows counts for every threshold, one
    made at or below a threshold only for those its recursive norm has
    reached.
    """
    n, storage = A.n, x.dtype.type
    small = n <= _DOT_BLOCK
    axpy, scal, copy, blas_dot, tiny = _level1(x.dtype)  # tiny: a smaller r'z has underflowed
    dot = blas_dot if small else _blocked_dot
    zeros = np.zeros_like(x) if small else None  # copied to clear a buffer
    product = _accumulate_product(A)  # product(v, out): out += A v, unchecked
    add, subtract, multiply = np.add, np.subtract, np.multiply
    sqrt, inf = math.sqrt, math.inf
    max_iterations = config.max_iterations or 10 * n
    # ||b|| as np.linalg.norm computes it: sqrt(b'b) at the storage precision
    scale = float(np.sqrt(storage(dot(b, b)))) if config.residual_mode == "relative" else 1.0
    thresholds = [t * scale for t in tolerances]
    count = len(thresholds)
    window = config.stagnation_window
    guarded = window <= max_iterations
    plain = inv_diag is None

    r, d, Ad, t = (np.empty_like(x) for _ in range(4))  # t: scratch
    z = r if plain else np.empty_like(x)
    t.fill(0)
    product(x, t)
    subtract(b, t, r)  # r = b - A x
    res = float(np.sqrt(storage(dot(r, r))))
    if not plain:
        multiply(inv_diag, r, z)
    np.copyto(d, z)
    rz = dot(r, d)  # r'M^-1 r; plain r'r when unpreconditioned
    history = [(0, res)]  # (iteration, ||b - A x||) of every test
    made_at = [0.0]  # the recursive norm of each test, 0 where every threshold counts it

    def tests_for(threshold):  # the tests a run to threshold alone makes
        return tuple(test for test, at in zip(history, made_at) if at <= threshold)

    met, status = 0, "max_iterations"
    target = thresholds[0] if count else -inf  # the next unmet threshold; -inf once all are met
    sampled_at, anchor = 0, res  # iteration and recursive norm of the last sample
    sampled, recursive = True, inf  # of the initial residual
    for k in range(max_iterations + 1):
        if k > 0:
            if small:
                copy(zeros, Ad)
            else:
                Ad.fill(0)
            product(d, Ad)  # A d
            dAd = dot(d, Ad)
            if not 0 < dAd < inf:  # also rejects NaN
                raise CgBreakdownError(
                    f"d'Ad = {storage(dAd)} at iteration {k}: operand not SPD at {A.precision}"
                )
            alpha = rz / dAd
            if small:
                axpy(scal(alpha, copy(d, t)), x)  # x + alpha * d
                axpy(scal(alpha, Ad), r, n, -1.0)  # r - alpha * Ad; a keyword a costs 0.1 us
            else:
                add(x, multiply(d, alpha, t), x)  # x + alpha * d
                subtract(r, multiply(Ad, alpha, t), r)  # r - alpha * Ad
            if not plain:
                multiply(inv_diag, r, z)
            rz_next = dot(r, z)
            beta = rz_next / rz  # rz >= tiny: the run ended where it underflowed
            if small:
                axpy(z, scal(beta, d))  # z + beta * d
            else:
                add(z, multiply(d, beta, d), d)  # z + beta * d
            rz = rz_next

            # Samples depend on the config and the trajectory alone, so a
            # run to one threshold takes the same.
            recursive = inf
            sampled = k == max_iterations or rz < tiny
            if not sampled:
                recursive = sqrt(rz if plain else dot(r, r))
                sampled = guarded and (
                    k - sampled_at >= window or recursive <= anchor / SAMPLE_FACTOR)
                if sampled:
                    sampled_at, anchor = k, recursive
                elif recursive > target:
                    continue
            if small:
                product(x, copy(zeros, t))
                axpy(b, t, n, -1.0)  # A x - b, of the same norm as b - A x
            else:
                t.fill(0)
                product(x, t)
                subtract(b, t, t)  # b - A x
            res = float(np.sqrt(storage(dot(t, t))))
            history.append((k, res))
            made_at.append(0.0 if sampled else recursive)
        # A threshold counts this test only where a run to it alone tests.
        while res <= target and (sampled or recursive <= target):
            yield SolveResult(x.copy(), k, res, "converged", tests_for(target))
            met += 1
            target = thresholds[met] if met < count else -inf
        if met == count:
            return
        if rz < tiny:  # d would be 0 or subnormal, and d'Ad may be 0
            status = "underflow"
            break
        if sampled and res > TRUE_RESIDUAL_MARGIN * recursive:  # drift
            status = "stagnated"
            break
    for threshold in thresholds[met:]:
        yield SolveResult(x.copy(), k, res, status, tests_for(threshold))


def _inverse_diagonal(A: SparseSymMatrix) -> np.ndarray:
    """1/diag(A) at the storage precision, the Jacobi preconditioner."""
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise NonpositiveDiagonalError("Jacobi preconditioning needs diag > 0")
    return (A.dtype.type(1) / diag).astype(A.dtype)


def cg(A: SparseSymMatrix, b, x0=None, config: SolveConfig | None = None) -> SolveResult:
    """Conjugate gradients at the matrix's storage precision, preconditioned
    by M = diag(A) when ``config.preconditioner`` is "jacobi".

    Stops when the true residual ``||b - A x||`` (divided by ``||b||`` in
    relative mode) falls to the configured tolerance, when max_iterations
    is reached, when a sample of the true residual has drifted from the
    recursive one, or when ``r'z`` underflows (below the smallest normal).
    The module notes say where a run recomputes the true residual.
    """
    if config is None:
        raise ValueError("config with a tolerance is required")
    b, x = _check_operands(A, b, x0)
    inv_diag = _inverse_diagonal(A) if config.preconditioner == "jacobi" else None
    return next(_run_cg(A, b, x, config, inv_diag, (config.tolerance,)))


def no_stagnation(config: SolveConfig) -> SolveConfig:
    """Copy of ``config`` whose stagnation window can never trigger, so
    its runs test the true residual only where the recursive norm is at or
    below the threshold, on the last iteration and where ``r'z``
    underflows (below the smallest normal)."""
    return replace(config, stagnation_window=2**31 - 1)


@lru_cache(maxsize=32)
def _stage_configs(config: SolveConfig | None, epsilon2: float) -> tuple[SolveConfig, SolveConfig]:
    """The config of a sweep's binary32 stage 1 (``config``, or the default
    one at eps2) and of its binary64 stage 2, built once per pair.

    The stagnation guard exists for the binary32 stage, whose residual can
    floor out far above the target.  Refinement in binary64 is bounded by
    max_iterations alone; its long plateaus are ordinary CG behavior.
    """
    config = config or SolveConfig(tolerance=epsilon2)
    return config, no_stagnation(replace(config, tolerance=epsilon2))


def sweep(
    A: SparseSymMatrix,
    b,
    epsilons,
    epsilon2: float,
    mu: float = 0.5,
    config: SolveConfig | None = None,
) -> tuple[list[TwoStageResult], Exception | None]:
    """Two-stage solves of A x = b for each eps1 in ``epsilons``, in order.

    ``None`` stands for the pure binary64 baseline: stage 2 from zero,
    N1 = 0, stage-1 status "skipped".  Returns the results and None, or
    the results before the first failing eps1 and the exception that
    failed it; invalid arguments, a non-finite eps1 or a b that is not a
    finite vector of length n among them, raise.
    """
    tolerances = sorted({e for e in epsilons if e is not None}, reverse=True)
    if not all(math.isfinite(e) for e in tolerances):
        raise ValueError("epsilon1 values must be finite")
    if not 0 < epsilon2 <= (tolerances[-1] if tolerances else epsilon2):
        raise ValueError("epsilon2 must be positive and not exceed epsilon1")
    if not 0 < mu < 1:
        raise ValueError("mu must lie in (0, 1)")
    config, refine = _stage_configs(config, epsilon2)
    if A.dtype != np.float64:
        raise PrecisionMismatchError("two-stage solve expects a binary64 matrix")
    b = _check_vector(A, "b", np.asarray(b, dtype=np.float64))
    jacobi = config.preconditioner == "jacobi"

    stage1, stage1_failure = {}, None  # eps1 -> (result, seconds)
    try:
        if tolerances:
            start = time.perf_counter()
            A32, b32 = downcast(A), downcast_vector(b)
            inv_diag = _inverse_diagonal(A32) if jacobi else None
            x32 = np.zeros(A.n, dtype=np.float32)  # the zero start, as cg's x0=None
            run = _run_cg(A32, b32, x32, config, inv_diag, tolerances)
            for eps1, result in zip(tolerances, run):
                stage1[eps1] = result, time.perf_counter() - start
    except Exception as exc:  # noqa: BLE001 - fails every eps1 left unmet
        stage1_failure = exc

    stage2, results = {}, []
    try:
        for eps1 in epsilons:
            first, seconds1 = stage1.get(eps1, (None, 0.0))
            if first is None and eps1 is not None:
                return results, stage1_failure
            n1 = first.iterations if first else 0
            if n1 not in stage2:
                start = time.perf_counter()
                x0 = upcast_vector(first.x) if first else None
                second = cg(A, b, x0, refine)
                stage2[n1] = second, time.perf_counter() - start
            second, seconds2 = stage2[n1]
            if second.status != "converged":
                return results, Stage2NotConvergedError(
                    f"stage 2 ended with status '{second.status}' after {second.iterations}"
                    f" iterations (residual {second.final_residual_norm:.3e})")
            n2, status1 = second.iterations, first.status if first else "skipped"
            results.append(TwoStageResult(  # eps1 with one N1 share a stage 2
                second.x.copy(), n1, n2, eps1, epsilon2, mu, cost(n1, n2, mu), status1,
                second.status, second.final_residual_norm,
                first.spmv_calls if first else 0, second.spmv_calls, seconds1, seconds2))
    except Exception as exc:  # noqa: BLE001 - reported like a stage-1 failure
        return results, exc
    return results, None


def two_stage_solve(
    A: SparseSymMatrix,
    b,
    epsilon1: float,
    epsilon2: float,
    mu: float = 0.5,
    config: SolveConfig | None = None,
) -> TwoStageResult:
    """Solve A x = b in binary32 to eps1, then refine in binary64 to eps2.

    Stage 1 starts from zero on the rounded system; its last iterate is
    upcast and used as the starting point of stage 2 even when stage 1
    stagnated or underflowed short of eps1.  The returned cost is
    ``mu * N1 + N2``.  This is ``sweep`` over the one value eps1; a failed
    solve raises.
    """
    results, failure = sweep(A, b, (epsilon1,), epsilon2, mu, config)
    if failure is not None:
        raise failure
    return results[0]


def cost(n1: int, n2: int, mu: float) -> float:
    """Weighted iteration count of a two-stage run: mu * n1 + n2."""
    if n1 < 0 or n2 < 0:
        raise ValueError("iteration counts must be nonnegative")
    return mu * n1 + n2

