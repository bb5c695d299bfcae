import math
import os
import re
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg.blas import get_blas_funcs
from scipy.sparse import _sparsetools

from mpcg.dataset import DEFAULT_GRID, FAMILIES, GraphSpec, generate, ones_rhs
from mpcg import solver, sparse
from mpcg.errors import (
    CgBreakdownError,
    DimensionMismatchError,
    NonpositiveDiagonalError,
    PrecisionMismatchError,
    Stage2NotConvergedError,
)
from mpcg.solver import (
    SolveConfig,
    _inverse_diagonal,
    _run_cg,
    cg,
    cost,
    no_stagnation,
    sweep,
    two_stage_solve,
)
from mpcg.sparse import (
    SparseSymMatrix,
    _accumulate_product,
    _scipy_csr,
    downcast,
    downcast_vector,
    upcast_vector,
)

from oracles import (
    cg_reference,
    dd_spd_triplets,
    eigenvalues_of,
    from_triplets,
    iteration_bound,
    true_residuals_of,
    two_stage_reference,
)


def run_cg(A, b, x0, config, inv_diag, tolerances):
    """``_run_cg`` on the operands ``cg`` checks, x0 copied or zeros for None."""
    return _run_cg(A, *solver._check_operands(A, b, x0), config, inv_diag, tolerances)


def diag_matrix(values):
    return from_triplets(
        [(i, i, float(v)) for i, v in enumerate(values)], len(values)
    )


def random_dd(n, rng, **kw):
    return from_triplets(dd_spd_triplets(n, rng, **kw), n)


CFG = SolveConfig(tolerance=1e-12)
JACOBI = replace(CFG, preconditioner="jacobi")


class TestCg:
    def test_identity_converges_in_one_iteration(self):
        A = diag_matrix([1.0] * 5)
        b = np.ones(5)
        res = cg(A, b, None, CFG)
        assert res.status == "converged"
        assert res.iterations == 1
        np.testing.assert_array_equal(res.x, b)

    def test_three_distinct_eigenvalues(self):
        A = diag_matrix([1.0, 2.0, 3.0])
        b = np.ones(3)
        res = cg(A, b, None, SolveConfig(tolerance=1e-12))
        assert res.status == "converged" and res.iterations <= 3
        np.testing.assert_allclose(res.x, b / np.array([1.0, 2.0, 3.0]), atol=1e-12)
        assert res.final_residual_norm <= 1e-12 * np.linalg.norm(b)

    def test_indefinite_matrix_breaks_down(self):
        A = diag_matrix([1.0, -1.0])
        with pytest.raises(CgBreakdownError):
            cg(A, np.array([0.0, 1.0]), None, CFG)

    def test_true_residuals_run_from_zero_to_the_last_iteration(self):
        rng = np.random.default_rng(0)
        A = random_dd(30, rng)
        b = rng.standard_normal(30)
        res = cg(A, b, None, SolveConfig(tolerance=1e-10))
        assert res.status == "converged"
        assert res.true_residuals[0] == (0, float(np.linalg.norm(b)))  # b - A 0 = b
        assert res.true_residuals[-1] == (res.iterations, res.final_residual_norm)
        tested = [k for k, _ in res.true_residuals]
        assert tested == sorted(set(tested))

    def test_converged_run_satisfies_stopping_test(self):
        rng = np.random.default_rng(1)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            A = random_dd(40, rng, signed=True)
            b = rng.standard_normal(40)
            res = cg(A, b, None, SolveConfig(tolerance=1e-9))
            recomputed = np.linalg.norm(b - A @ res.x)
            threshold = 1e-9 * np.linalg.norm(b)
            assert recomputed <= np.nextafter(threshold, np.inf, dtype=np.float64)

    def test_absolute_residual_mode(self):
        rng = np.random.default_rng(2)
        A = random_dd(20, rng)
        b = 100.0 * rng.standard_normal(20)
        res = cg(A, b, None, SolveConfig(tolerance=1e-6, residual_mode="absolute"))
        assert res.status == "converged"
        assert np.linalg.norm(b - A @ res.x) <= 1e-6

    def test_distinct_eigenvalue_termination(self):
        rng = np.random.default_rng(3)
        for k in range(1, 11):
            values = np.repeat(np.geomspace(1.0, 100.0, k), 5)
            A = diag_matrix(values)
            b = rng.standard_normal(A.n)
            res = cg(A, b, None, SolveConfig(tolerance=1e-8))
            assert res.status == "converged"
            assert res.iterations <= k + 2

    def test_precision_checks(self):
        A = diag_matrix([1.0, 2.0])
        with pytest.raises(PrecisionMismatchError):
            cg(A, np.ones(2, dtype=np.float32), None, CFG)
        with pytest.raises(PrecisionMismatchError, match="x0 is float32, matrix stores float64"):
            cg(A, np.ones(2), np.zeros(2, dtype=np.float32), CFG)

    def test_operand_lengths_and_config_checked(self):
        A = diag_matrix([1.0, 2.0])
        with pytest.raises(DimensionMismatchError, match="b must have length 2"):
            cg(A, np.ones(3), None, CFG)
        with pytest.raises(DimensionMismatchError, match="x0 must have length 2"):
            cg(A, np.ones(2), np.zeros(3), CFG)
        with pytest.raises(ValueError, match="config with a tolerance is required"):
            cg(A, np.ones(2))

    def test_max_iterations_status(self):
        rng = np.random.default_rng(4)
        A = random_dd(50, rng, delta=(1e-4, 1e-3))
        cfg = SolveConfig(tolerance=1e-13, max_iterations=3, stagnation_window=10)
        res = cg(A, rng.standard_normal(50), None, cfg)
        assert res.status == "max_iterations" and res.iterations == 3

    def test_stagnation_in_binary32(self):
        rng = np.random.default_rng(5)
        A32 = downcast(random_dd(80, rng, delta=(1e-4, 1e-3)))
        b = rng.standard_normal(80).astype(np.float32)
        res = cg(A32, b, None, SolveConfig(tolerance=1e-9, residual_mode="absolute"))
        assert res.status == "stagnated"


class TestJacobi:
    def test_diagonal_system_in_one_iteration(self):
        A = diag_matrix([4.0, 9.0])
        res = cg(A, np.array([4.0, 9.0]), None, JACOBI)
        assert res.iterations == 1
        np.testing.assert_allclose(res.x, [1.0, 1.0], rtol=1e-14)

    def test_identity_matches_cg_exactly(self):
        A = diag_matrix([1.0] * 6)
        b = np.arange(1.0, 7.0)
        r1 = cg(A, b, None, CFG)
        r2 = cg(A, b, None, JACOBI)
        assert r1.iterations == r2.iterations
        assert np.array_equal(r1.x, r2.x)
        assert r1.true_residuals == r2.true_residuals

    def test_unit_diagonal_identical_iterate_sequence(self):
        # ring of weight 0.3 keeps row sums below the unit diagonal
        n = 12
        trips = [(i, i, 1.0) for i in range(n)]
        for i in range(n):
            j = (i + 1) % n
            trips += [(i, j, 0.3), (j, i, 0.3)]
        A = from_triplets(trips, n)
        b = np.cos(np.arange(n))
        config = SolveConfig(tolerance=1e-11)
        r1 = cg(A, b, None, config)
        r2 = cg(A, b, None, replace(config, preconditioner="jacobi"))
        assert np.array_equal(r1.x, r2.x)
        # Both test the true residual at the same iterations, with the same norms.
        assert r1.true_residuals == r2.true_residuals
        (ref,) = cg_reference(A, b, None, config, None, (1e-11,))
        assert_same_run(r1, ref)

    def test_nonpositive_diagonal_rejected(self):
        A = diag_matrix([1.0, -1.0])
        with pytest.raises(NonpositiveDiagonalError):
            cg(A, np.ones(2), None, JACOBI)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cg_honours_a_jacobi_config(self, dtype):
        # A thin dominance margin, where the preconditioner pays.
        A = generate(
            GraphSpec("random_gnm", 300, seed=1, m_target=600, delta_range=(1e-3, 1e-2))
        )
        b = ones_rhs(A)
        if dtype == np.float32:
            A, b = downcast(A), downcast_vector(b)
        jacobi = SolveConfig(tolerance=1e-6, preconditioner="jacobi")
        got = cg(A, b, None, jacobi)
        plain = cg(A, b, None, replace(jacobi, preconditioner="none"))
        assert got.iterations < plain.iterations

    def test_matches_cg_solution_and_rarely_slower(self):
        agree = 0
        not_slower = 0
        seeds = range(20)
        for seed in seeds:
            rng = np.random.default_rng(seed)
            A = random_dd(30, rng, density=0.2)
            b = rng.standard_normal(30)
            tight = SolveConfig(tolerance=1e-12)
            r1 = cg(A, b, None, tight)
            r2 = cg(A, b, None, replace(tight, preconditioner="jacobi"))
            if np.linalg.norm(r1.x - r2.x) <= 1e-9:
                agree += 1
            if r2.iterations <= r1.iterations:
                not_slower += 1
        assert agree == len(seeds)
        assert not_slower >= 0.9 * len(seeds)


class TestTwoStage:
    def test_identity(self):
        A = diag_matrix([1.0] * 8)
        b = np.ones(8)
        r = two_stage_solve(A, b, 0.1, 1e-10)
        assert r.n1 == 1 and r.n2 in (0, 1)
        assert r.final_residual_norm <= 1e-10 * np.linalg.norm(b)

    def test_loose_eps1_degenerates_to_pure_double(self):
        rng = np.random.default_rng(6)
        A = random_dd(40, rng)
        b = A @ np.ones(40)
        r = two_stage_solve(A, b, 1.0, 1e-10)
        assert r.n1 == 0
        assert r.cost == r.n2

    def test_cost_bookkeeping(self):
        rng = np.random.default_rng(7)
        A = random_dd(60, rng)
        b = A @ np.ones(60)
        r = two_stage_solve(A, b, 1e-3, 1e-10, mu=0.5)
        assert r.cost == 0.5 * r.n1 + r.n2

    def test_sweep_rejects_a_binary32_matrix(self):
        A = downcast(diag_matrix([1.0, 2.0]))
        with pytest.raises(PrecisionMismatchError, match="expects a binary64 matrix"):
            sweep(A, np.ones(2), (0.1, None), 1e-10)

    def test_sweep_returns_a_stage2_exception(self, monkeypatch):
        A = random_dd(40, np.random.default_rng(6))
        failure = CgBreakdownError("stage 2 fails")

        def failing_cg(*args):
            raise failure

        monkeypatch.setattr(solver, "cg", failing_cg)
        assert sweep(A, A @ np.ones(40), (1e-3, None), 1e-10) == ([], failure)

    def test_validates_tolerances(self):
        A = diag_matrix([1.0])
        with pytest.raises(ValueError):
            two_stage_solve(A, np.ones(1), 1e-12, 1e-10)
        with pytest.raises(ValueError):
            two_stage_solve(A, np.ones(1), 0.1, 1e-10, mu=1.5)

    def test_stage1_stagnation_still_refines(self):
        rng = np.random.default_rng(8)
        A = random_dd(150, rng, density=0.02, delta=(1e-4, 1e-3))
        b = A @ np.ones(150)
        r = two_stage_solve(A, b, 1e-7, 1e-10)
        assert r.stage1_status == "stagnated"
        assert r.stage2_status == "converged"
        assert r.final_residual_norm <= 1e-10 * np.linalg.norm(b)

    def test_final_accuracy_across_grid(self):
        rng = np.random.default_rng(9)
        A = random_dd(50, rng)
        b = A @ np.ones(50)
        for eps1 in (0.1, 1e-3, 1e-5, 1e-7):
            r = two_stage_solve(A, b, eps1, 1e-10)
            recomputed = np.linalg.norm(b - A @ r.x) / np.linalg.norm(b)
            assert recomputed <= 1e-10 * (1 + 1e-12)

    def test_jacobi_route(self):
        rng = np.random.default_rng(10)
        A = random_dd(40, rng)
        b = A @ np.ones(40)
        cfg = SolveConfig(tolerance=1e-10, preconditioner="jacobi")
        r = two_stage_solve(A, b, 1e-2, 1e-10, config=cfg)
        assert r.stage2_status == "converged"


class TestCostAndBound:
    def test_cost_examples(self):
        assert cost(0, 7, 0.5) == 7
        assert cost(10, 4, 0.5) == 9
        assert cost(6, 0, 0.25) == 1.5

    def test_cost_monotone(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n1, n2 = (int(v) for v in rng.integers(0, 100, 2))
            mu = float(rng.uniform(0.05, 0.95))
            assert cost(n1 + 1, n2, mu) > cost(n1, n2, mu)
            assert cost(n1, n2 + 1, mu) > cost(n1, n2, mu)

    def test_cost_rejects_negative(self):
        with pytest.raises(ValueError):
            cost(-1, 0, 0.5)

    def test_bound_trivial_case(self):
        assert iteration_bound(1.0, 1.0) == 1

    def test_bound_against_closed_form(self):
        # 5 ln(2e10) = 118.59...: 0.41 from an integer, far beyond binary64's error
        want = math.ceil(0.5 * 10 * math.log(2e10))
        assert want == 119
        assert iteration_bound(100.0, 1e-10) == 119

    def test_bound_validates(self):
        with pytest.raises(ValueError):
            iteration_bound(0.5, 0.1)
        with pytest.raises(ValueError):
            iteration_bound(10.0, 2.0)
        with pytest.raises(ValueError):
            iteration_bound(10.0, 0.0)

    def test_measured_iterations_within_bound(self):
        eps = 1e-8
        for seed in range(25):
            rng = np.random.default_rng(seed)
            A = random_dd(40, rng, density=0.15)
            ev = eigenvalues_of(A)
            kappa = ev[-1] / ev[0]
            res = cg(A, rng.standard_normal(40), None, SolveConfig(tolerance=eps))
            assert res.status == "converged"
            assert res.iterations <= iteration_bound(kappa, eps)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            SolveConfig(tolerance=math.inf)  # would "converge" at iteration 0
        with pytest.raises(ValueError):
            SolveConfig(tolerance=1e-6, stagnation_window=0)
        with pytest.raises(ValueError):
            SolveConfig(tolerance=1e-6, preconditioner="ilu")
        with pytest.raises(ValueError, match="max_iterations must be positive"):
            SolveConfig(tolerance=1e-6, max_iterations=0)
        with pytest.raises(ValueError, match="residual_mode must be 'relative' or 'absolute'"):
            SolveConfig(tolerance=1e-6, residual_mode="scaled")

    @pytest.mark.parametrize("name", ["max_iterations", "stagnation_window"])
    @pytest.mark.parametrize("value", [2.5, 30.0, True, "30"])
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            SolveConfig(tolerance=1e-6, **{name: value})

    def test_no_stagnation_helper(self):
        cfg = no_stagnation(SolveConfig(tolerance=1e-6))
        assert cfg.stagnation_window >= 2**30
        assert math.isclose(cfg.tolerance, 1e-6)


class TestNonFiniteOperands:
    """A NaN or Inf in b or x0 is an input error, not a breakdown."""

    @staticmethod
    def _system(dtype):
        A = random_dd(30, np.random.default_rng(45))
        A = A if dtype == np.float64 else downcast(A)
        return A, np.ones(30, dtype=dtype)

    @pytest.mark.parametrize("preconditioner", ["none", "jacobi"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_b_is_rejected(self, preconditioner, dtype, value):
        A, b = self._system(dtype)
        b[7] = value
        config = replace(CFG, preconditioner=preconditioner)
        with pytest.raises(ValueError, match=re.escape(f"b[7] = {value} is not finite")):
            cg(A, b, None, config)

    @pytest.mark.parametrize("preconditioner", ["none", "jacobi"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_x0_is_rejected(self, preconditioner, dtype, value):
        A, b = self._system(dtype)
        config = replace(CFG, preconditioner=preconditioner)
        with pytest.raises(ValueError, match=re.escape("x0[0] = ")):
            cg(A, b, np.full(30, value, dtype=dtype), config)

    def test_two_stage_solve_and_sweep_reject_b(self):
        A, b = self._system(np.float64)
        b[3] = math.nan
        with pytest.raises(ValueError, match=re.escape("b[3] = nan is not finite")):
            two_stage_solve(A, b, 1e-4, 1e-10)
        for epsilons in [(1e-2, 1e-4, None), (None,)]:
            with pytest.raises(ValueError, match=re.escape("b[3] = nan")):
                sweep(A, b, epsilons, 1e-10)

    @pytest.mark.parametrize("eps1", [math.nan, math.inf])
    def test_sweep_rejects_non_finite_epsilon1(self, eps1):
        A, b = self._system(np.float64)
        with pytest.raises(ValueError, match="epsilon1 values must be finite"):
            sweep(A, b, (1e-2, eps1, None), 1e-10)
        with pytest.raises(ValueError, match="epsilon1 values must be finite"):
            two_stage_solve(A, b, eps1, 1e-10)


def bits(a):
    """Bit pattern of a float array or scalar, so -0.0 and NaN compare exactly."""
    a = np.asarray(a)
    return a.view(f"u{a.dtype.itemsize}")


def assert_same_run(result, ref):
    x, iterations, residual, status, history = ref
    assert result.x.dtype == x.dtype
    assert np.array_equal(bits(result.x), bits(x))
    assert result.iterations == iterations
    assert result.status == status
    assert bits(np.float64(result.final_residual_norm)) == bits(np.float64(residual))
    assert result.true_residuals[0][0] == 0
    assert result.true_residuals[1:] == true_residuals_of(history)


def _kernel_cases():
    """(A, b, x0, config, tolerances) covering both precisions, both
    preconditioners, both residual modes, a start vector, a one-iteration
    cap, a stagnating run and tolerances met within one iteration."""
    rng = np.random.default_rng(40)
    A = random_dd(60, rng, density=0.1, signed=True)
    b = rng.standard_normal(60)
    thin = random_dd(80, np.random.default_rng(5), delta=(1e-4, 1e-3))
    b_thin = np.random.default_rng(5).standard_normal(80)
    grid = (0.5, 0.45, 0.1, 1e-2, 1e-3, 1e-5, 1e-7)
    cases = {}
    for prec in ("b64", "b32"):
        M, v = (A, b) if prec == "b64" else (downcast(A), downcast_vector(b))
        for pre in ("none", "jacobi"):
            cfg = SolveConfig(tolerance=1e-6, preconditioner=pre)
            cases[f"{prec}-{pre}-relative"] = (M, v, None, cfg, grid)
            cases[f"{prec}-{pre}-absolute"] = (
                M, v, None, replace(cfg, residual_mode="absolute"), (1.0, 1e-4))
            cases[f"{prec}-{pre}-x0"] = (M, v, np.linspace(-1, 1, 60, dtype=v.dtype), cfg, grid)
            cases[f"{prec}-{pre}-one-iteration"] = (
                M, v, None, replace(cfg, max_iterations=1), (1e-1, 1e-9))
    A32 = downcast(thin)
    b32 = downcast_vector(b_thin)
    stall = SolveConfig(tolerance=1e-9, residual_mode="absolute")
    cases["b32-none-stagnating"] = (A32, b32, None, stall, (1e-2, 1e-5, 1e-9, 1e-12))
    cases["b32-jacobi-stagnating"] = (
        A32, b32, None, replace(stall, preconditioner="jacobi"), (1e-2, 1e-9))
    return cases


KERNEL_CASES = _kernel_cases()


def _lazy_cases():
    """Kernel cases with the stagnation guard off, so the kernel tests the
    true residual only where the recursive norm is at or below a threshold,
    plus one per precision and preconditioner that ends on max_iterations."""
    cases = {}
    for prec in ("b64", "b32"):
        for pre in ("none", "jacobi"):
            for tail in ("relative", "absolute", "x0", "one-iteration"):
                A, b, x0, config, tolerances = KERNEL_CASES[f"{prec}-{pre}-{tail}"]
                cases[f"{prec}-{pre}-{tail}-lazy"] = (
                    A, b, x0, no_stagnation(config), tolerances)
            A, b, _, config, _ = KERNEL_CASES[f"{prec}-{pre}-relative"]
            capped = replace(no_stagnation(config), max_iterations=7)
            cases[f"{prec}-{pre}-max-iterations-lazy"] = (A, b, None, capped, (1e-1, 1e-12))
    for pre in ("none", "jacobi"):
        A, b, x0, config, tolerances = KERNEL_CASES[f"b32-{pre}-stagnating"]
        cases[f"b32-{pre}-stagnating-lazy"] = (A, b, x0, no_stagnation(config), tolerances)
    # The true residual drifts from the recursive one where this run meets
    # 1.8e-6; without a guard it must not test every iteration after that.
    A, b, x0, config, _ = KERNEL_CASES["b32-none-absolute"]
    cases["b32-none-drift-lazy"] = (A, b, x0, no_stagnation(config), (1.8e-6, 1e-13))
    cases["b32-jacobi-star-lazy"] = _star_case(no_stagnation)
    cases["b32-jacobi-star-6e-6-lazy"] = _star_case(no_stagnation, looser=6e-6)
    return cases


def _star_case(guard=lambda config: config, looser=3e-6):
    """A Jacobi star at the binary32 floor whose true residual after
    iteration 3 meets 2e-6 while the recursive one, 5.63e-6, is more than
    twice that; a test there for ``looser`` must not count for 2e-6.  A run
    to 3e-6 makes no test there; one to 6e-6 makes one and stops."""
    spec = GraphSpec("star", 830, seed=3066083399684947246, delta_range=(0.01, 0.1))
    A = generate(spec)
    config = guard(SolveConfig(tolerance=2e-6, preconditioner="jacobi"))
    return downcast(A), downcast_vector(ones_rhs(A)), None, config, (looser, 2e-6)


LAZY_CASES = _lazy_cases()


class TestLeanKernel:
    """The in-place CG kernel against the allocating loop it replaced."""

    @staticmethod
    def _inv(A, config):
        return _inverse_diagonal(A) if config.preconditioner == "jacobi" else None

    @staticmethod
    def _matches_reference(A, b, x0, config, tolerances, solve=None):
        """Results of ``_run_cg`` (or ``solve``, for one tolerance) equal to
        the oracle's bit for bit."""
        inv_diag = TestLeanKernel._inv(A, config)
        want = cg_reference(A, b, x0, config, inv_diag, tolerances)
        if solve is None:
            got = list(run_cg(A, b, x0, config, inv_diag, tolerances))
        else:
            got = [solve(A, b, x0, config)]
        assert len(got) == len(want) == len(tolerances)
        for result, ref in zip(got, want):
            assert_same_run(result, ref)  # the tested iterations alone
        return got

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_run_cg_matches_reference_bits(self, name):
        self._matches_reference(*KERNEL_CASES[name])

    @pytest.mark.parametrize("name", sorted(KERNEL_CASES))
    def test_cg_matches_reference_bits(self, name):
        A, b, x0, config, tolerances = KERNEL_CASES[name]
        for tol in tolerances:
            self._matches_reference(A, b, x0, replace(config, tolerance=tol), (tol,), cg)

    @pytest.mark.parametrize("name", sorted(LAZY_CASES))
    def test_lazy_run_matches_reference_bits(self, name):
        got = self._matches_reference(*LAZY_CASES[name])
        for result in got:
            assert result.true_residuals[-1] == (result.iterations, result.final_residual_norm)
        if got[-1].iterations > 5:  # some iteration was not tested
            assert len(got[-1].true_residuals) < got[-1].iterations + 1

    def test_stagnating_case_stagnates(self):
        A, b, x0, config, tolerances = KERNEL_CASES["b32-none-stagnating"]
        statuses = [r.status for r in run_cg(A, b, x0, config, None, tolerances)]
        assert statuses[0] == "converged" and statuses[-1] == "stagnated"

    def test_breakdown_matches_reference(self):
        A = diag_matrix([1.0, -1.0])
        b = np.array([0.0, 1.0])
        with pytest.raises(CgBreakdownError):
            cg_reference(A, b, None, CFG, None, (1e-12,))
        with pytest.raises(CgBreakdownError):
            cg(A, b, None, CFG)

    @pytest.mark.parametrize("pre", ["none", "jacobi"])
    def test_sweep_matches_reference_bits(self, pre):
        rng = np.random.default_rng(41)
        A = random_dd(70, rng, density=0.08, delta=(1e-3, 1e-2))
        b = A @ np.ones(70)
        grid = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
        config = SolveConfig(tolerance=1e-10, preconditioner=pre)
        results, failure = sweep(A, b, grid + (None,), 1e-10, 0.5, config)
        assert failure is None and len(results) == len(grid) + 1

        A32 = downcast(A)
        stage1 = cg_reference(
            A32, downcast_vector(b), None, config, self._inv(A32, config), grid)
        refine = no_stagnation(config)
        for result, first in zip(results, stage1 + [None]):
            x0 = None if first is None else upcast_vector(first[0])
            x, n2, residual, status, _ = cg_reference(
                A, b, x0, refine, self._inv(A, refine), (1e-10,))[0]
            assert result.n1 == (0 if first is None else first[1])
            assert result.stage1_status == ("skipped" if first is None else first[3])
            assert (result.n2, result.stage2_status) == (n2, status)
            assert result.final_residual_norm == residual
            assert np.array_equal(bits(result.x), bits(x))


class TestKernelAliasing:
    def test_multi_tolerance_results_are_distinct_and_frozen(self):
        A, b, x0, config, tolerances = KERNEL_CASES["b64-none-relative"]
        run = run_cg(A, b, x0, config, None, tolerances)
        results, snapshots = [], []
        for result in run:  # snapshot each x before the run moves on
            results.append(result)
            snapshots.append(result.x.copy())
        assert len(results) == len(tolerances)
        for i, result in enumerate(results):
            assert np.array_equal(bits(result.x), bits(snapshots[i]))
            for other in results[i + 1:]:
                assert not np.shares_memory(result.x, other.x)

    def test_stagnated_results_are_distinct(self):
        A, b, x0, config, tolerances = KERNEL_CASES["b32-none-stagnating"]
        results = list(run_cg(A, b, x0, config, None, tolerances))
        tail = [r for r in results if r.status == "stagnated"]
        assert len(tail) >= 2
        assert not np.shares_memory(tail[0].x, tail[1].x)

    def test_sweep_results_hold_distinct_arrays(self):
        A = diag_matrix([1.0] * 8)  # every eps1 ends stage 1 after one iteration
        results, failure = sweep(A, np.ones(8), (1e-1, 1e-2, 1e-3, None), 1e-10)
        assert failure is None and len({r.n1 for r in results[:3]}) == 1
        for i, result in enumerate(results):
            for other in results[i + 1:]:
                assert not np.shares_memory(result.x, other.x)
        kept = [r.x.copy() for r in results]
        results[0].x[:] = -7.0
        assert all(np.array_equal(r.x, k) for r, k in zip(results[1:], kept[1:]))

    @pytest.mark.parametrize("preconditioner", ["none", "jacobi"])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_operands_left_unchanged(self, preconditioner, dtype):
        rng = np.random.default_rng(42)
        A = random_dd(40, rng)
        A = A if dtype == np.float64 else downcast(A)
        b = rng.standard_normal(40).astype(dtype)
        x0 = rng.standard_normal(40).astype(dtype)
        b_bits, x0_bits = bits(b).copy(), bits(x0).copy()
        result = cg(A, b, x0, SolveConfig(tolerance=1e-5, preconditioner=preconditioner))
        assert result.iterations > 0
        assert np.array_equal(bits(b), b_bits)
        assert np.array_equal(bits(x0), x0_bits)
        assert not np.shares_memory(result.x, x0)


def family_matrix(family, n, seed, delta):
    """A generated matrix; random_gnm with m = 1.5 n edges, random_regular of degree 4."""
    extra = {"random_gnm": {"m_target": 3 * n // 2}, "random_regular": {"degree": 4}}
    return generate(GraphSpec(family, n, seed=seed, delta_range=delta, **extra.get(family, {})))


def _sweep_cases():
    """(A, b, config) of binary64 systems for a sweep over the desk grid:
    every kernel case that starts from zero, whose binary32 system is the
    stage 1 here, but those capped at one iteration, whose stage 2 cannot
    converge, and one thin-margin desk-size matrix of each family."""
    cases = {}
    for name, (A, b, x0, config, _) in KERNEL_CASES.items():
        if x0 is None and config.max_iterations is None:
            A64 = SparseSymMatrix(A.row_starts, A.col_indices, A.values.astype(np.float64))
            cases[name] = (A64, b.astype(np.float64), config)
    for family in FAMILIES:
        A = family_matrix(family, 300, 7, (1e-4, 1e-3))
        cases[family] = (A, ones_rhs(A), SolveConfig(tolerance=1e-10))
    return cases


SWEEP_CASES = _sweep_cases()


class TestLazyTrueResidual:
    """Every run tests the true residual where the recursive norm is at or
    below the threshold; elsewhere a run whose guard cannot fire skips it,
    and a guarded run samples it."""

    def test_spmv_counts(self, monkeypatch):
        rng = np.random.default_rng(43)
        A = random_dd(80, rng, delta=(1e-3, 1e-2))
        b = rng.standard_normal(80)
        # Count calls of the compiled kernel, which the initial residual
        # and every product of the loop make.
        products, counted = [], _sparsetools.csr_matvec

        def csr_matvec(*args):
            products.append(1)
            return counted(*args)

        ((_, iterations, _, _, history),) = cg_reference(A, b, None, CFG, None, (1e-12,))
        monkeypatch.setattr(_sparsetools, "csr_matvec", csr_matvec)
        guarded = cg(A, b, None, CFG)
        assert guarded.iterations == iterations
        assert guarded.spmv_calls == len(products)
        assert guarded.true_residuals[1:] == true_residuals_of(history)
        assert guarded.spmv_calls < 2 * guarded.iterations + 1
        products.clear()
        lazy = cg(A, b, None, no_stagnation(CFG))
        assert guarded.iterations == lazy.iterations > 10
        assert lazy.spmv_calls == len(products) < 2 * lazy.iterations + 1

    def test_spmv_counts_on_the_coo_path(self, monkeypatch):
        # An irregular matrix of more than 8192 rows takes coo_matvec.  Its
        # 30 iterations still fit the default 25-iteration window.
        A = generate(GraphSpec("tree_random", 9000, seed=5))
        b = ones_rhs(A)
        products = {"coo_matvec": 0, "csr_matvec": 0}

        def counting(name):
            kernel = getattr(_sparsetools, name)

            def counted(*args):
                products[name] += 1
                return kernel(*args)
            return counted

        for name in products:
            monkeypatch.setattr(_sparsetools, name, counting(name))
        guarded = SolveConfig(tolerance=1e-15, max_iterations=30)
        for config in (guarded, no_stagnation(guarded)):
            products.update(coo_matvec=0, csr_matvec=0)
            result = cg(A, b, None, config)
            assert result.iterations == 30
            assert result.spmv_calls == products["coo_matvec"] and products["csr_matvec"] == 0
        # The lazy run tests its initial residual and its last iteration.
        assert len(result.true_residuals) < result.iterations

    def test_stage1_on_two_unknowns_is_lazy(self):
        # The default 10 n = 20 iterations cannot outlast the 25-iteration
        # window, so the guard of this binary32 run cannot fire, and the run
        # tests only at or below the threshold and on its last iteration.
        A = downcast(from_triplets([(0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 3.0)], 2))
        b = np.array([1.0, 2.0], dtype=np.float32)
        config = SolveConfig(tolerance=1e-6)
        result = cg(A, b, None, config)
        ((x, iterations, _, status, history),) = cg_reference(
            A, b, None, config, None, (1e-6,), eager=True)
        assert (result.iterations, result.status) == (iterations, status) == (2, "converged")
        assert np.array_equal(bits(result.x), bits(x))
        assert [k for k, _ in result.true_residuals] == [0, 2] and not np.isnan(history[0])
        assert result.spmv_calls == 4

    def test_sweep_reports_spmv_per_stage(self):
        rng = np.random.default_rng(44)
        A = random_dd(70, rng, density=0.08, delta=(1e-3, 1e-2))
        b = A @ np.ones(70)
        grid = (1e-2, 1e-5)
        results, failure = sweep(A, b, grid + (None,), 1e-10)
        assert failure is None
        config = SolveConfig(tolerance=1e-10)
        stage1 = cg_reference(downcast(A), downcast_vector(b), None, config, None, grid)
        refine = no_stagnation(config)
        for result, first in zip(results, stage1 + [None]):
            if first is None:
                assert result.stage1_spmv_calls == 0
                x0 = None
            else:
                x, n1, _, _, history = first
                assert result.n1 == n1
                assert result.stage1_spmv_calls == 1 + n1 + len(true_residuals_of(history))
                x0 = upcast_vector(x)
            assert result.stage2_spmv_calls == cg(A, b, x0, refine).spmv_calls
            assert result.stage2_spmv_calls < 2 * result.n2 + 1
        assert results[1].stage1_spmv_calls < 2 * results[1].n1 + 1

    @pytest.mark.parametrize("name", sorted(SWEEP_CASES))
    def test_sweep_prices_each_class_as_two_stage_solve(self, name):
        A, b, config = SWEEP_CASES[name]
        A32, b32 = downcast(A), downcast_vector(b)
        inv_diag = TestLeanKernel._inv(A32, config)
        stage1 = run_cg(A32, b32, None, config, inv_diag, DEFAULT_GRID)
        for eps1, result in zip(DEFAULT_GRID, stage1, strict=True):
            alone = cg(A32, b32, None, replace(config, tolerance=eps1))
            assert result.true_residuals == alone.true_residuals
            assert result.spmv_calls == alone.spmv_calls
        results, failure = sweep(A, b, DEFAULT_GRID, 1e-10, 0.5, config)
        assert failure is None and len(results) == len(DEFAULT_GRID)
        for eps1, result in zip(DEFAULT_GRID, results):
            solo = two_stage_solve(A, b, eps1, 1e-10, 0.5, config)
            assert (result.n1, result.stage1_status) == (solo.n1, solo.stage1_status)
            assert result.stage1_spmv_calls == solo.stage1_spmv_calls
            assert (result.n2, result.stage2_spmv_calls) == (solo.n2, solo.stage2_spmv_calls)
            assert np.array_equal(bits(result.x), bits(solo.x))

    def test_binary32_lazy_stop_is_later_than_eager(self):
        # A star at the binary32 floor: after iteration 3 the true relative
        # residual is 1.56e-6 <= 2e-6, but the recursive one reads 5.63e-6,
        # above the threshold.  The eager test stops there; the lazy one
        # skips it and stops at iteration 4, where both agree.
        spec = GraphSpec("star", 830, seed=3066083399684947246, delta_range=(0.01, 0.1))
        A = generate(spec)
        A32, b = downcast(A), downcast_vector(ones_rhs(A))
        lazy_cfg = no_stagnation(SolveConfig(tolerance=2e-6, preconditioner="jacobi"))
        inv_diag = _inverse_diagonal(A32)
        (eager,) = cg_reference(A32, b, None, lazy_cfg, inv_diag, (2e-6,), eager=True)
        lazy = cg(A32, b, None, lazy_cfg)
        assert (eager[1], eager[3]) == (3, "converged")
        assert (lazy.iterations, lazy.status) == (4, "converged")
        assert 3 not in dict(lazy.true_residuals)  # skipped at the eager stop
        assert eager[4][2] <= 2e-6 * np.linalg.norm(b)
        # The iterates are those of the eager trajectory.
        capped = replace(lazy_cfg, tolerance=1e-30, max_iterations=4)
        (ref,) = cg_reference(A32, b, None, capped, inv_diag, (1e-30,), eager=True)
        assert np.array_equal(bits(lazy.x), bits(ref[0]))
        true = float(np.linalg.norm(b - _scipy_csr(A32) @ lazy.x))
        assert true <= 2e-6 * float(np.linalg.norm(b))

    @pytest.mark.parametrize("family, iterations", [("grid2d", 188), ("tree_random", 401)])
    def test_binary64_run_tests_where_it_starts_and_stops(self, family, iterations):
        # Thin-margin systems like the large benchmark's, at n = 10^4.  In
        # binary64 the true and recursive residuals agree down to 1e-10, so
        # the first test past the initial residual stops the run: N + 2
        # products, as on the benchmark's n = 10^5 files.
        A = family_matrix(family, 10_000, 1, (1e-3, 1e-2))
        result = cg(A, ones_rhs(A), None, no_stagnation(SolveConfig(tolerance=1e-10)))
        assert (result.iterations, result.status) == (iterations, "converged")
        assert [k for k, _ in result.true_residuals] == [0, iterations]
        assert result.spmv_calls == iterations + 2

    @pytest.mark.parametrize("seed", range(16))
    def test_lazy_never_stops_earlier_and_meets_threshold(self, seed):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(10, 90))
        A = random_dd(n, rng, density=float(rng.uniform(0.03, 0.3)),
                      delta=(1e-5, 1e-2) if seed % 2 else (1e-2, 1.0), signed=bool(seed % 3))
        b = rng.standard_normal(n)
        tolerances = tuple(np.logspace(-2, -9, 15))
        for M, v in ((A, b), (downcast(A), downcast_vector(b))):
            for pre in ("none", "jacobi"):
                lazy_cfg = no_stagnation(
                    SolveConfig(tolerance=1e-9, preconditioner=pre, max_iterations=3 * n))
                inv_diag = TestLeanKernel._inv(M, lazy_cfg)
                # The oracle's schedule that tests every iteration.
                eager = cg_reference(M, v, None, lazy_cfg, inv_diag, tolerances, eager=True)
                lazy = list(run_cg(M, v, None, lazy_cfg, inv_diag, tolerances))
                assert len(lazy) == len(eager) == len(tolerances)
                scale = float(np.linalg.norm(v))
                for tol, result, (x, iterations, *_) in zip(tolerances, lazy, eager):
                    assert result.iterations >= iterations
                    if result.iterations == iterations:
                        assert np.array_equal(bits(result.x), bits(x))
                    if result.status == "converged":
                        true = float(np.linalg.norm(v - _scipy_csr(M) @ result.x))
                        assert true <= tol * scale


def _sampled_cases():
    """Guarded binary32 runs: the kernel cases whose window fits in
    max_iterations, plus thin-margin random systems over the desk grid in
    both residual modes."""
    cases = {
        name: case for name, case in KERNEL_CASES.items()
        if name.startswith("b32") and "one-iteration" not in name
    }
    # Alone, this threshold is far below the recursive norm when drift
    # shows, so only the drift rule makes the run test every iteration.
    A, b, x0, config, _ = KERNEL_CASES["b32-none-stagnating"]
    cases["b32-none-stagnating-alone"] = (A, b, x0, config, (1e-12,))
    cases["b32-jacobi-star"] = _star_case()
    grid = tuple(10.0 ** -e for e in range(1, 8))
    for seed in range(6):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(60, 160))
        A = random_dd(n, rng, density=float(rng.uniform(0.02, 0.1)), delta=(1e-4, 1e-3))
        b = rng.standard_normal(n)
        for pre in ("none", "jacobi"):
            config = SolveConfig(tolerance=1e-10, preconditioner=pre)
            cases[f"random-{seed}-{pre}"] = (downcast(A), downcast_vector(b), None, config, grid)
            cases[f"random-{seed}-{pre}-absolute"] = (
                downcast(A), downcast_vector(b), None,
                replace(config, residual_mode="absolute"), grid)
    return cases


SAMPLED_CASES = _sampled_cases()


def _sampled_run(name):
    """(config, final result, iterations tested, first drifted sample or
    None, oracle norms) of a sampled case.  Samples and drift are read
    from the oracle's norms: no sample on the last iteration or where r'z
    is 0 counts as drift."""
    A, b, x0, config, tolerances = SAMPLED_CASES[name]
    inv_diag = TestLeanKernel._inv(A, config)
    results = list(run_cg(A, b, x0, config, inv_diag, tolerances))
    norms = []
    cg_reference(A, b, x0, config, inv_diag, tolerances, norms=norms)
    tested = [k for k, _ in results[-1].true_residuals]
    last = config.max_iterations or 10 * A.n
    drifted = [k for k, (true, recursive, rz, sample) in enumerate(norms, 1)
               if sample and k < last and rz != 0
               and true > solver.TRUE_RESIDUAL_MARGIN * recursive]
    return config, results[-1], tested, (drifted[0] if drifted else None), norms


class TestSampledGuard:
    """A guarded run samples the true residual a window after its previous
    sample and where the recursive norm has fallen by SAMPLE_FACTOR since
    then, and tests it at or below a threshold and on its last iteration;
    it ends "stagnated" at its first sample that shows drift."""

    def test_tests_before_drift_are_at_most_a_window_apart(self):
        widest = 0
        for name in sorted(SAMPLED_CASES):
            config, _, tested, _, norms = _sampled_run(name)
            samples = [k for k, norm in enumerate(norms, 1) if norm[3]]
            assert set(samples) <= set(tested), name
            gaps = np.diff(tested)
            assert gaps.max() <= config.stagnation_window, name
            widest = max(widest, int(gaps.max()))
        assert widest == SolveConfig(tolerance=1).stagnation_window  # tests were skipped

    def test_run_ends_at_its_first_drifted_sample(self):
        stagnated = 0
        for name in sorted(SAMPLED_CASES):
            _, result, tested, drift, _ = _sampled_run(name)
            if drift is None:
                assert result.status != "stagnated", name
                continue
            stagnated += 1
            assert (result.iterations, result.status) == (drift, "stagnated"), name
            assert tested[-1] == drift
        assert stagnated >= 12

    def test_binary32_stagnating_case_still_stagnates(self):
        config, result, _, drift, _ = _sampled_run("b32-none-stagnating")
        assert (result.iterations, result.status) == (drift, "stagnated") == (24, "stagnated")

    def test_binary32_jacobi_stagnating_case_returns(self):
        # The guarded run ends at its drifted sample.  An unguarded one runs
        # on until its r'z falls below the smallest binary32 normal at
        # iteration 41 and ends "underflow" there; its r'z reaches 0 only
        # at 46.
        config, result, _, drift, _ = _sampled_run("b32-jacobi-stagnating")
        assert (result.iterations, result.status) == (drift, "stagnated") == (18, "stagnated")
        A, b, x0, _, tolerances = SAMPLED_CASES["b32-jacobi-stagnating"]
        inv_diag, norms = TestLeanKernel._inv(A, config), []
        lazy = list(run_cg(A, b, x0, no_stagnation(config), inv_diag, tolerances))
        assert [(r.iterations, r.status) for r in lazy] == [(7, "converged"), (41, "underflow")]
        assert lazy[-1].true_residuals[-1] == (41, lazy[-1].final_residual_norm)
        cg_reference(A, b, x0, no_stagnation(config), inv_diag, tolerances, norms=norms)
        tiny = np.finfo(np.float32).tiny
        assert len(norms) == 41 and 0 < norms[40][2] < tiny <= norms[39][2]

    @pytest.mark.parametrize("name", sorted(SAMPLED_CASES) + sorted(LAZY_CASES))
    def test_each_result_equals_a_run_to_its_tolerance_alone(self, name):
        cases = SAMPLED_CASES if name in SAMPLED_CASES else LAZY_CASES
        A, b, x0, config, tolerances = cases[name]
        inv_diag = TestLeanKernel._inv(A, config)
        grid = list(run_cg(A, b, x0, config, inv_diag, tolerances))
        assert len(grid) == len(tolerances)
        for tol, result in zip(tolerances, grid):
            (alone,) = run_cg(A, b, x0, config, inv_diag, (tol,))
            assert (alone.iterations, alone.status) == (result.iterations, result.status)
            assert alone.final_residual_norm == result.final_residual_norm
            assert np.array_equal(bits(alone.x), bits(result.x))
            assert alone.true_residuals == result.true_residuals
            assert alone.spmv_calls == result.spmv_calls

    @pytest.mark.parametrize("n", [1000, 10_000])
    @pytest.mark.parametrize("delta", [(1e-4, 1e-3), (0.1, 2.0)], ids=["thin", "wide"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_run_to_drift_ends_well_before_the_cap(self, family, delta, n):
        # Binary32 cannot reach 1e-10: the run must end on drift (or
        # underflow), never run on to 10 n.  Each ends "stagnated" today,
        # tree_random with thin margins at n = 10^4 the latest, at 532.
        A = family_matrix(family, n, 1, delta)
        result = cg(downcast(A), downcast_vector(ones_rhs(A)), None, SolveConfig(1e-10))
        assert result.status != "max_iterations"
        assert result.iterations < n

    def test_desk_group_168_base_reaches_1e5(self):
        # g00168b of the desk sample: its true residual is not monotone, and
        # a guard that compared the best tested residual with the best one
        # a window earlier stopped its stage 1 at N1 = 57, short of
        # eps1 = 1e-5.  Its first drift shows at 275, where the run ends.
        spec = GraphSpec("random_gnm", 204, seed=2794336669971157239, m_target=229,
                         delta_range=(1e-4, 1e-3), variants=10)
        A = generate(spec)
        A32, b = downcast(A), downcast_vector(ones_rhs(A))
        config = SolveConfig(tolerance=1e-10)
        grid = tuple(10.0 ** -e for e in range(1, 8))
        results = list(run_cg(A32, b, None, config, None, grid))
        assert (results[4].iterations, results[4].status) == (133, "converged")
        assert (results[6].iterations, results[6].status) == (275, "stagnated")
        true = float(np.linalg.norm(b - _scipy_csr(A32) @ results[4].x))
        assert true <= 1e-5 * float(np.linalg.norm(b))
        # Without drift a plateau is no stagnation: capped short of 1e-5,
        # the run ends on max_iterations, not on the guard.
        capped = replace(config, max_iterations=120)
        (result,) = run_cg(A32, b, None, capped, None, (1e-5,))
        assert (result.iterations, result.status) == (120, "max_iterations")


SCHEDULE_CASES = {**KERNEL_CASES, **LAZY_CASES, **SAMPLED_CASES}


@pytest.mark.parametrize("name", sorted(SCHEDULE_CASES))
def test_tests_sit_at_samples_or_at_or_below_the_threshold(name):
    """Each true residual a result records after the initial one is a
    sample, the last iteration, an underflow, or an iteration whose
    recursive norm (read from the oracle) is at or below the result's
    threshold; and every such iteration up to its stop is tested."""
    A, b, x0, config, tolerances = SCHEDULE_CASES[name]
    inv_diag = TestLeanKernel._inv(A, config)
    norms = []
    cg_reference(A, b, x0, config, inv_diag, tolerances, norms=norms)
    scale = float(np.linalg.norm(b)) if config.residual_mode == "relative" else 1.0
    last = config.max_iterations or 10 * A.n
    tiny = np.finfo(A.dtype).tiny
    results = run_cg(A, b, x0, config, inv_diag, tolerances)
    for tol, result in zip(tolerances, results, strict=True):
        threshold = tol * scale
        tested = [k for k, _ in result.true_residuals[1:]]
        for k in tested:
            _, recursive, rz, sample = norms[k - 1]
            assert sample or k == last or rz < tiny or recursive <= threshold, (tol, k)
        due = [k for k, (_, recursive, _, sample) in enumerate(norms[:result.iterations], 1)
               if sample or recursive <= threshold]
        assert tested == due, tol


def _underflow_system(kind, n, seed, m_target=None, single=False):
    """A generated matrix and a standard normal b, both rounded to binary32
    with ``single``."""
    A = generate(GraphSpec(kind, n, seed=seed, m_target=m_target))
    b = np.random.default_rng(0).standard_normal(n)
    return (downcast(A), downcast_vector(b)) if single else (A, b)


UNDERFLOW = no_stagnation(SolveConfig(1e-300, max_iterations=2000))


class TestUnderflow:
    """A run whose r'z underflows, below the smallest normal of its
    precision, tests the true residual there, counts it for every
    threshold and ends "underflow": d'Ad, of the order of r'z, may
    underflow to 0, which is no breakdown of an SPD operand."""

    @pytest.mark.parametrize("system, iterations, residual", [
        (("random_gnm", 600, 2, 1500), 683, 1.6326149389889445e-14),
        (("tree_random", 800, 3, None, True), 116, 8.438827535428572e-06),
    ], ids=["binary64-random-gnm", "binary32-tree"])
    def test_run_ends_where_rz_underflows(self, system, iterations, residual):
        A, b = _underflow_system(*system)
        result = cg(A, b, None, UNDERFLOW)
        assert (result.iterations, result.status) == (iterations, "underflow")
        assert result.final_residual_norm == residual
        assert result.true_residuals == ((0, result.true_residuals[0][1]), (iterations, residual))
        (ref,) = cg_reference(A, b, None, UNDERFLOW, None, (1e-300,))
        assert_same_run(result, ref)

    @pytest.mark.parametrize("dtype, subnormal", [
        pytest.param(np.float64, False, id="float64"),
        pytest.param(np.float32, False, id="float32"),
        pytest.param(np.float64, True, id="float64-subnormal"),
        pytest.param(np.float32, True, id="float32-subnormal"),
    ])
    def test_initial_rz_of_zero(self, dtype, subnormal):
        # Under Jacobi r'z = sum r_i^2 / a_ii is 0, or 3/16 of the smallest
        # normal, while ||r|| is not.  The subnormal one would converge at
        # iteration 1 if the run went on.
        tiny = np.finfo(dtype).tiny
        A = diag_matrix([1 / tiny] * 3)
        A = A if dtype == np.float64 else downcast(A)
        b = np.full(3, 0.25 if subnormal else np.sqrt(tiny) / 4, dtype=dtype)
        rz = b.dot(b * _inverse_diagonal(A))
        assert (0 < rz < tiny) if subnormal else rz == 0
        config = no_stagnation(replace(JACOBI, tolerance=tiny, residual_mode="absolute"))
        result = cg(A, b, None, config)
        assert (result.iterations, result.status) == (0, "underflow")
        assert result.true_residuals == ((0, result.final_residual_norm),)
        assert result.final_residual_norm > tiny and not result.x.any()
        (ref,) = cg_reference(A, b, None, config, _inverse_diagonal(A), (tiny,))
        assert_same_run(result, ref)

    def test_stage2_underflow_is_not_converged(self):
        A, b = _underflow_system("random_gnm", 600, 2, 1500)
        results, failure = sweep(A, b, (None,), 1e-300, config=UNDERFLOW)
        assert results == [] and isinstance(failure, Stage2NotConvergedError)
        assert "status 'underflow' after 683 iterations" in str(failure)

    def test_stage1_underflow_hands_its_iterate_on(self):
        A, b = _underflow_system("tree_random", 800, 3)
        config = no_stagnation(SolveConfig(1e-12, max_iterations=2000))
        result = two_stage_solve(A, b, 1e-12, 1e-12, config=config)
        assert (result.n1, result.stage1_status) == (116, "underflow")
        assert result.stage2_status == "converged"
        n1, n2, x, _, _ = two_stage_reference(A, b, 1e-12, 1e-12, 0.5, config)
        assert (n1, n2) == (result.n1, result.n2) and np.array_equal(bits(x), bits(result.x))


class TestBlockedDot:
    """Above _DOT_BLOCK unknowns every inner product of a run is the
    in-order sum of per-block BLAS dots, whatever the BLAS thread count."""

    B = solver._DOT_BLOCK

    @staticmethod
    def vectors(n, dtype, seed=50):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n).astype(dtype), rng.standard_normal(n).astype(dtype)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 7, solver._DOT_BLOCK - 1, solver._DOT_BLOCK])
    def test_one_block_is_the_plain_dot(self, n, dtype):
        u, v = self.vectors(n, dtype)
        got = solver._blocked_dot(u, v)
        assert got.dtype == dtype
        assert bits(got) == bits(u.dot(v))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_blocks_are_summed_left_to_right(self, dtype):
        n, B = 3 * self.B + 5, self.B
        u, v = self.vectors(n, dtype)
        d = [u[k:k + B].dot(v[k:k + B]) for k in range(0, n, B)]
        assert len(d) == 4
        want = ((d[0] + d[1]) + d[2]) + d[3]
        got = solver._blocked_dot(u, v)
        assert got.dtype == dtype
        assert bits(got) == bits(want)

    @staticmethod
    def system(n, dtype=np.float64):
        """A well-conditioned tridiagonal SPD system."""
        diagonal = np.linspace(3.0, 50.0, n)
        A = from_triplets(
            [(i, i, diagonal[i]) for i in range(n)] + [(i, i + 1, -1.0) for i in range(n - 1)],
            n, mirror=True, dtype=dtype)
        return A, np.cos(np.arange(n)).astype(dtype)

    def counted_run(self, monkeypatch, n, config, precondition=False):
        calls, blocked = [], solver._blocked_dot

        def counting(u, v):
            calls.append(u.size)
            return blocked(u, v)

        monkeypatch.setattr(solver, "_blocked_dot", counting)
        A, b = self.system(n)
        inv_diag = _inverse_diagonal(A) if precondition else None
        (result,) = run_cg(A, b, None, config, inv_diag, (config.tolerance,))
        return result, calls

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_large_run_agrees_with_reference_to_rounding(self, dtype):
        # The blocked sums round differently from the oracle's plain dots;
        # on a well-conditioned system ten iterates stay within 1000 ulps.
        # A one-iteration window samples every iteration, as the oracle's
        # every-iteration schedule tests; no sample shows drift.
        A, b = self.system(3 * self.B + 5, dtype)
        config = SolveConfig(tolerance=1e-30, max_iterations=10, stagnation_window=1)
        (result,) = run_cg(A, b, None, config, None, (1e-30,))
        ((x, iterations, _, status, history),) = cg_reference(
            A, b, None, config, None, (1e-30,), eager=True)
        assert (result.iterations, result.status) == (iterations, status) == (10, "max_iterations")
        tol = 1000 * np.finfo(dtype).eps
        np.testing.assert_allclose(result.x, x, rtol=0, atol=tol * float(np.abs(x).max()))
        np.testing.assert_allclose(
            result.true_residuals[1:], true_residuals_of(history), rtol=tol)

    def test_small_run_makes_plain_dots(self, monkeypatch):
        config = SolveConfig(tolerance=1e-8, max_iterations=4)
        result, calls = self.counted_run(monkeypatch, self.B, config)
        assert result.iterations == 4 and calls == []

    def test_every_reduction_of_a_large_run_is_blocked(self, monkeypatch):
        n = self.B + 1
        # ||b||, r'r and r'd before the loop; d'Ad, r'z and the true
        # residual in each iteration of a run whose one-iteration window
        # makes it sample every iteration, as the oracle's every-iteration
        # schedule tests.
        config = SolveConfig(tolerance=1e-8, max_iterations=4, stagnation_window=1)
        result, calls = self.counted_run(monkeypatch, n, config)
        (ref,) = cg_reference(*self.system(n), None, config, None, (1e-8,), eager=True)
        assert result.iterations == ref[1] == 4 and len(true_residuals_of(ref[4])) == 4
        assert calls == [n] * (3 + 2 * 4 + 4)
        # No ||b|| in absolute mode.
        absolute = replace(config, residual_mode="absolute")
        result, calls = self.counted_run(monkeypatch, n, absolute)
        assert len(calls) == 2 + 3 * 4
        # A lazy Jacobi run takes r'r for the recursive norm in each
        # iteration before the last, and tests the true residual only where
        # that norm is at or below the threshold, and on the last.
        lazy = no_stagnation(replace(config, max_iterations=3))
        result, calls = self.counted_run(monkeypatch, n, lazy, precondition=True)
        tested = len(result.true_residuals) - 1
        assert result.iterations == 3 and tested == 1
        assert len(calls) == 3 + 2 * 3 + 2 + tested
        # A guarded Jacobi run far from its threshold, before any drift,
        # takes r'r in each iteration before the last and samples the true
        # residual where r'r has fallen a hundredfold (iteration 1), a window
        # after each sample (3 and 5) and on the last.
        sampled = replace(config, tolerance=1e-30, max_iterations=6, stagnation_window=2)
        result, calls = self.counted_run(monkeypatch, n, sampled, precondition=True)
        A, b = self.system(n)
        (ref,) = cg_reference(A, b, None, sampled, _inverse_diagonal(A), (1e-30,))
        assert result.iterations == ref[1] == 6
        tested = [k for k, _ in result.true_residuals[1:]]
        assert tested == [k for k, _ in true_residuals_of(ref[4])] == [1, 3, 5, 6]
        assert len(calls) == 3 + 2 * 6 + 5 + 4

    def test_iterates_do_not_depend_on_blas_threads(self):
        """The same solves in processes with one and with two BLAS threads:
        cg and two_stage_solve on a desk-size system, whose updates call
        scipy's BLAS, and on 20000 unknowns, plus a sweep over the desk
        grid whose stage 1 samples its tests over blocked dots; a plain dot
        of 20000 binary64 entries rounds differently on two."""
        src = os.path.dirname(os.path.dirname(solver.__file__))
        runs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", THREADS_SCRIPT],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            runs.append(out.strip().splitlines())
        assert runs[0] == runs[1]
        assert len(runs[0]) == 2 * 2 + 7
        # Stage 1 samples its true-residual tests: fewer than 2 N1 + 1 products.
        sweep_lines = [line.split() for line in runs[0][4:]]
        assert all(int(f[5]) < 2 * int(f[2]) + 1 for f in sweep_lines)


# A desk-size system, whose updates go through scipy's BLAS, and one on
# 20000 unknowns, whose dots are blocked.
THREADS_SCRIPT = """
import hashlib
from mpcg.dataset import DEFAULT_GRID, GraphSpec, generate, ones_rhs
from mpcg.solver import SolveConfig, cg, no_stagnation, sweep, two_stage_solve

D = (0.001, 0.01)
for A in (generate(GraphSpec("random_gnm", 600, seed=7, m_target=1500, delta_range=D)),
          generate(GraphSpec("tree_random", 20000, seed=7, delta_range=D))):
    b = ones_rhs(A)
    one = cg(A, b, None, no_stagnation(SolveConfig(tolerance=1e-10)))
    two = two_stage_solve(A, b, 1e-4, 1e-10)
    for name, counts, x in (("cg", (one.iterations,), one.x),
                            ("two-stage", (two.n1, two.n2), two.x)):
        print(name, A.n, counts, hashlib.sha256(x.tobytes()).hexdigest())
results, failure = sweep(A, b, DEFAULT_GRID, 1e-10)
assert failure is None
for r in results:
    digest = hashlib.sha256(r.x.tobytes()).hexdigest()
    print("sweep", r.epsilon1, r.n1, r.n2, r.stage1_status, r.stage1_spmv_calls, digest)
"""


class TestBlasUpdates:
    """Up to _DOT_BLOCK unknowns every level-1 step of a run is one of
    scipy's BLAS dot, copy, scal and axpy; its iterates keep their bits
    because dot rounds as numpy's dot, copy copies every bit, scal rounds
    as numpy's multiply and axpy with a = +-1 as numpy's add and subtract."""

    SPECIAL = (-1.0, -0.0, 0.0, math.nan, math.inf, -math.inf)

    @classmethod
    def vectors(cls, n, dtype):
        """Two random vectors spanning overflow and underflow, and the
        special values cycled over n entries from each starting point."""
        rng = np.random.default_rng(61)
        scaled = [rng.standard_normal(n) * 10.0 ** rng.integers(-40, 40, n) for _ in range(2)]
        special = np.array(cls.SPECIAL)
        cycled = [np.resize(np.roll(special, -k), n) for k in range(special.size)]
        with np.errstate(over="ignore"):  # to +-Inf in binary32
            return [v.astype(dtype) for v in scaled + cycled]

    @staticmethod
    def blas(v):
        return get_blas_funcs(("axpy", "scal", "copy", "dot"), (v,))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 600, solver._DOT_BLOCK])
    def test_dot_is_numpy_dot(self, n, dtype):
        # The scaled vectors, and two of unit scale, whose sums show the
        # summation order; scipy's dot returns a Python float.
        rng = np.random.default_rng(62)
        unit = [rng.standard_normal(n).astype(dtype) for _ in range(2)]
        vectors = self.vectors(n, dtype)[:2] + unit
        *_, dot = self.blas(vectors[0])
        for u in vectors:
            for v in vectors:
                with np.errstate(all="ignore"):
                    want = u.dot(v)
                got = dot(u, v)
                assert type(got) is float
                assert np.array_equal(bits(dtype(got)), bits(want)), (n, want, got)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 600, solver._DOT_BLOCK])
    def test_copy_copies_every_bit(self, n, dtype):
        # copy(zeros, v) clears a product's buffer, copy(d, t) takes d for x's update.
        vectors = self.vectors(n, dtype) + [np.zeros(n, dtype)]
        _, _, copy, _ = self.blas(vectors[0])
        for v in vectors:
            y = vectors[0].copy()
            assert copy(v, y) is y
            assert np.array_equal(bits(y), bits(v))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 600, solver._DOT_BLOCK])
    def test_scal_is_numpy_multiply(self, n, dtype):
        # beta is 0 where r'z underflows to 0, the iteration a run ends on.
        scales = (0.0, -0.0, 1.0, -1.0, 3.7e-3, -41.5, 1e-30, 1e30)
        for v in self.vectors(n, dtype):
            _, scal, _, _ = self.blas(v)
            for a in map(dtype, scales):
                with np.errstate(all="ignore"):
                    want = np.multiply(v, a)
                y = v.copy()
                assert scal(a, y) is y
                assert np.array_equal(bits(y), bits(want)), (n, a)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", [1, 600, solver._DOT_BLOCK])
    def test_unit_axpy_is_numpy_add_and_subtract(self, n, dtype):
        vectors = self.vectors(n, dtype)
        axpy, *_ = self.blas(vectors[0])
        for x in vectors:
            for v in vectors:
                for a, op in ((1.0, np.add), (-1.0, np.subtract)):
                    with np.errstate(all="ignore"):
                        want = op(v, x)
                    y = v.copy()
                    assert axpy(x, y, n, a) is y  # a after n, positionally, as the solver calls it
                    assert np.array_equal(bits(y), bits(want)), (n, a)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_table_holds_the_routines_of_the_operands(self, dtype):
        # Looked up once per precision: the routines get_blas_funcs picks
        # for a vector at that precision, and its smallest normal.
        *routines, tiny = solver._level1(np.dtype(dtype))
        assert routines == self.blas(np.zeros(3, dtype))
        assert solver._level1(np.dtype(dtype))[0] is routines[0]
        assert tiny == np.finfo(dtype).tiny

    @staticmethod
    def counted_run(monkeypatch, n):
        """A four-iteration run on n unknowns and the (routine, length) of
        each call it makes to the BLAS routines of ``solver._level1``."""
        calls, lookup = [], solver._level1

        def counting(dtype):
            def wrap(name, f):
                def counted(*args, **kwargs):
                    calls.append((name, max(np.size(a) for a in args)))
                    return f(*args, **kwargs)
                return counted
            *routines, tiny = lookup(dtype)
            return (*map(wrap, ("axpy", "scal", "copy", "dot"), routines), tiny)

        monkeypatch.setattr(solver, "_level1", counting)
        A, b = TestBlockedDot.system(n)
        config = SolveConfig(tolerance=1e-30, max_iterations=4)
        (result,) = run_cg(A, b, None, config, None, (1e-30,))
        return A, b, config, result, calls

    def test_desk_size_run_updates_through_blas(self, monkeypatch):
        n = solver._DOT_BLOCK
        A, b, config, result, calls = self.counted_run(monkeypatch, n)
        assert result.iterations == 4
        # Per iteration two copy, two dot, three scal and three axpy calls;
        # three dots before the loop (b'b, r'r and r'd) and one copy, axpy
        # and dot for the true residual of the last iteration; each over n.
        want = {"axpy": 4 * 3 + 1, "copy": 4 * 2 + 1, "dot": 3 + 4 * 2 + 1, "scal": 4 * 3}
        assert sorted(calls) == [(name, n) for name, k in want.items() for _ in range(k)]
        (ref,) = cg_reference(A, b, None, config, None, (1e-30,))
        assert_same_run(result, ref)

    def test_large_run_makes_no_long_blas_update(self, monkeypatch):
        # OpenBLAS splits an axpy of more than 10^4 entries across threads.
        *_, result, calls = self.counted_run(monkeypatch, solver._DOT_BLOCK + 1)
        assert result.iterations == 4
        assert all(length <= solver._DOT_BLOCK for _, length in calls)


class TestCooProduct:
    """On an irregular matrix of more than 8192 rows every product of a run
    is scipy's coo_matvec; the run keeps the bits of the oracles, whose
    products are ``csr_matrix @ x`` and whose dots are blocked as the
    solver's are above _DOT_BLOCK unknowns."""

    @staticmethod
    def system():
        spec = GraphSpec("tree_random", 10_000, seed=15, delta_range=(0.001, 0.01))
        A = generate(spec)
        return A, ones_rhs(A)

    def test_both_precisions_take_the_coo_kernel(self):
        A, _ = self.system()
        assert A.n > solver._DOT_BLOCK
        for M in (A, downcast(A)):
            assert _accumulate_product(M).func is _sparsetools.coo_matvec

    @pytest.mark.parametrize("pre", ["none", "jacobi"])
    def test_cg_matches_reference_bits(self, pre):
        A, b = self.system()
        config = no_stagnation(SolveConfig(tolerance=1e-10, preconditioner=pre))
        inv_diag = _inverse_diagonal(A) if pre == "jacobi" else None
        (ref,) = cg_reference(A, b, None, config, inv_diag, (1e-10,), block=solver._DOT_BLOCK)
        result = cg(A, b, None, config)
        assert result.status == "converged" and result.iterations > 50
        assert_same_run(result, ref)

    @pytest.mark.parametrize("eps1", [1e-2, 1e-5])
    def test_two_stage_solve_matches_reference_bits(self, eps1):
        A, b = self.system()
        config = SolveConfig(tolerance=1e-10)
        got = two_stage_solve(A, b, eps1, 1e-10, 0.5, config)
        n1, n2, x, _, _ = two_stage_reference(
            A, b, eps1, 1e-10, 0.5, config, block=solver._DOT_BLOCK)
        assert got.n1 > 0 and (got.n1, got.n2) == (n1, n2)
        assert np.array_equal(bits(got.x), bits(x))


class TestProductSetUp:
    """A run binds its product once, for its initial residual and its loop:
    one ``_accumulate_product`` call per ``cg``, one per stage of a
    ``two_stage_solve``, so a COO matrix builds its row index once per run."""

    @pytest.fixture
    def setups(self, monkeypatch):
        calls = []

        def counting(A):
            calls.append(A.precision)
            return _accumulate_product(A)

        for module in (sparse, solver):
            monkeypatch.setattr(module, "_accumulate_product", counting)
        return calls

    @pytest.mark.parametrize("config", [CFG, JACOBI], ids=["none", "jacobi"])
    def test_one_per_cg_run(self, setups, config):
        A = random_dd(30, np.random.default_rng(47))
        b = A @ np.ones(30)
        setups.clear()
        assert cg(A, b, None, config).iterations > 1
        assert setups == ["binary64"]

    def test_one_per_stage(self, setups):
        A = random_dd(30, np.random.default_rng(48))
        b = A @ np.ones(30)
        setups.clear()
        result = two_stage_solve(A, b, 1e-3, 1e-10)
        assert result.n1 > 1 and result.n2 > 1
        assert setups == ["binary32", "binary64"]


class TestSweepSetUp:
    """What a sweep checks and builds once: b in sweep, each cg its own
    operands, stage 1 none; the stage configs once per config and eps2."""

    def test_b_checked_once_and_each_cg_its_operands(self, monkeypatch):
        A = random_dd(30, np.random.default_rng(49))
        checked, check = [], solver._check_vector

        def counting(M, name, v):
            checked.append((M.precision, name))
            return check(M, name, v)

        monkeypatch.setattr(solver, "_check_vector", counting)
        results, failure = sweep(A, A @ np.ones(30), (1e-1, 1e-3, None), 1e-10)
        assert failure is None and len({r.n1 for r in results}) == 3
        # sweep's b; then b and x0 of the two refinements, b of the baseline
        refinement = [("binary64", "b"), ("binary64", "x0")]
        assert checked == [("binary64", "b"), *refinement * 2, ("binary64", "b")]

    def test_b_of_another_length_raises(self):
        A = random_dd(30, np.random.default_rng(49))
        with pytest.raises(DimensionMismatchError, match="b must have length 30"):
            sweep(A, np.ones(31), (1e-3, None), 1e-10)

    def test_stage_configs_built_once_per_config(self):
        for config in (None, CFG, JACOBI):
            first, refine = solver._stage_configs(config, 1e-9)
            assert first == (config or SolveConfig(tolerance=1e-9))
            assert refine == no_stagnation(replace(first, tolerance=1e-9))
            assert solver._stage_configs(config, 1e-9)[1] is refine


class TestStageSeconds:
    def test_sweep_times_each_stage(self):
        rng = np.random.default_rng(45)
        A = random_dd(70, rng, density=0.08, delta=(1e-3, 1e-2))
        b = A @ np.ones(70)
        results, failure = sweep(A, b, (1e-1, 1e-2, 1e-5, None), 1e-10)
        assert failure is None
        *staged, baseline = results
        assert all(r.stage1_seconds > 0 and r.stage2_seconds > 0 for r in staged)
        # Stage 1 runs once; a smaller eps1 is met later on the same run.
        assert [r.stage1_seconds for r in staged] == sorted(r.stage1_seconds for r in staged)
        assert baseline.stage1_seconds == 0.0 and baseline.stage2_seconds > 0

    def test_shared_stage2_reports_its_own_run(self):
        # Both eps1 are met at iteration 1 of stage 1, so they share a stage 2.
        A = diag_matrix([2.0, 2.0, 2.0])
        results, failure = sweep(A, np.ones(3), (1e-1, 1e-2), 1e-10)
        assert failure is None
        first, second = results
        assert first.n1 == second.n1 == 1
        assert first.stage2_seconds == second.stage2_seconds > 0
        assert 0 < first.stage1_seconds <= second.stage1_seconds

    def test_two_stage_solve_reports_seconds(self):
        A = random_dd(40, np.random.default_rng(46))
        r = two_stage_solve(A, A @ np.ones(40), 1e-4, 1e-10)
        assert r.stage1_seconds > 0 and r.stage2_seconds > 0
