"""Tests for the step kernels against independent dense oracles."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.linalg.lapack import dpotrf

from helpers import (
    cho_gram_solver,
    cho_reference_step,
    dense_kkt_step,
    explicit_projector,
    random_full_rank,
    svd_gate_passes,
)
from noisy_sqp import get_problem
from noisy_sqp.diagnostics import evaluate_diagnostics
from noisy_sqp.kernels import (
    NonFiniteJacobianError,
    SingularJacobianError,
    factor_gram,
    least_squares_multiplier,
    project_tangent,
    singular_values,
    solve_sqp_step,
)


class TestLeastSquaresMultiplier:
    def test_gradient_in_row_space(self):
        lam = least_squares_multiplier(np.array([[1.0, 0.0]]), np.array([3.0, 4.0]))
        assert_allclose(lam, [3.0], atol=1e-14)

    def test_gradient_orthogonal_to_row_space(self):
        lam = least_squares_multiplier(np.array([[1.0, 0.0]]), np.array([0.0, 5.0]))
        assert_allclose(lam, [0.0], atol=1e-14)

    def test_matches_lstsq_oracle_on_random_instances(self):
        # lstsq solves min ||J' lam - g||, whose normal equations give
        # exactly (JJ')^{-1} J g.
        rng = np.random.default_rng(314)
        for _ in range(50):
            J, _, g = random_full_rank(rng)
            expected = np.linalg.lstsq(J.T, g, rcond=None)[0]
            assert_allclose(least_squares_multiplier(J, g), expected, atol=1e-10)

    def test_rank_deficient_raises_with_sigma(self):
        J = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(SingularJacobianError) as err:
            least_squares_multiplier(J, np.ones(2))
        assert err.value.sigma_min == pytest.approx(0.0, abs=1e-12)


class TestProjectTangent:
    def test_axis_aligned(self):
        out = project_tangent(np.array([[1.0, 0.0]]), np.array([3.0, 4.0]))
        assert_allclose(out, [0.0, 4.0], atol=1e-14)

    def test_row_space_annihilated(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            J, _, _ = random_full_rank(rng)
            y = rng.normal(size=J.shape[0])
            assert_allclose(project_tangent(J, J.T @ y), np.zeros(J.shape[1]), atol=1e-10)

    def test_idempotent_and_in_null_space(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            J, _, g = random_full_rank(rng)
            pw = project_tangent(J, g)
            assert np.max(np.abs(J @ pw)) <= 1e-10
            assert_allclose(project_tangent(J, pw), pw, atol=1e-10)

    def test_matches_explicit_projector(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            J, _, g = random_full_rank(rng)
            assert_allclose(project_tangent(J, g), explicit_projector(J) @ g, atol=1e-12)


class TestSolveStep:
    def test_forced_arithmetic(self):
        step = solve_sqp_step(np.array([[1.0, 0.0]]), np.array([2.0]), np.array([0.0, 1.0]), 1.0)
        assert_allclose(step.v, [-2.0, 0.0], atol=1e-14)
        assert_allclose(step.u, [0.0, -1.0], atol=1e-14)
        assert_allclose(step.d, [-2.0, -1.0], atol=1e-14)

    def test_stationary_subproblem_gives_zero_step(self):
        step = solve_sqp_step(np.array([[1.0, 0.0]]), np.array([0.0]), np.array([7.0, 0.0]), 1.0)
        assert_allclose(step.d, np.zeros(2), atol=1e-14)

    def test_hs7_step_matches_dense_solve(self):
        p = get_problem("HS7")
        x = np.array([2.0, 2.0])
        J, c, g = p.eval_J(x), p.eval_c(x), p.eval_g(x)
        step = solve_sqp_step(J, c, g, 50.0)
        assert_allclose(step.d, dense_kkt_step(J, c, g, 50.0), atol=1e-10)

    def test_oracle_equivalence_and_orthogonality(self):
        rng = np.random.default_rng(4)
        betas = (0.7, 1.0, 5.0, 50.0)
        for i in range(100):
            J, c, g = random_full_rank(rng)
            beta = betas[i % len(betas)]
            step = solve_sqp_step(J, c, g, beta)
            assert np.max(np.abs(step.d - dense_kkt_step(J, c, g, beta))) <= 1e-9
            uv = abs(np.dot(step.u, step.v))
            assert uv <= 1e-10 * (np.linalg.norm(step.u) * np.linalg.norm(step.v) + 1.0)

    def test_components_solve_their_subsystems(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            J, c, g = random_full_rank(rng)
            step = solve_sqp_step(J, c, g, 2.0)
            assert np.linalg.norm(J @ step.v + c) <= 1e-10 * (1.0 + np.linalg.norm(c))
            assert np.max(np.abs(J @ step.u)) <= 1e-10
            # linearized feasibility of the combined step
            assert np.max(np.abs(J @ step.d + c)) <= 1e-8 * (1.0 + np.max(np.abs(c)))

    def test_tangential_scale_law(self):
        rng = np.random.default_rng(6)
        J, c, g = random_full_rank(rng)
        lo = solve_sqp_step(J, c, g, 25.0)
        hi = solve_sqp_step(J, c, g, 50.0)
        assert_allclose(hi.v, lo.v, rtol=0, atol=0)  # normal part ignores beta
        assert_allclose(hi.u, lo.u / 2.0, rtol=1e-15, atol=0)

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            solve_sqp_step(np.array([[1.0, 0.0]]), np.zeros(1), np.zeros(2), 0.0)


class TestMinSingularValue:
    def test_unit_row(self):
        assert singular_values(np.array([[1.0, 0.0]]))[-1] == pytest.approx(1.0)

    def test_dependent_rows(self):
        J = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert singular_values(J)[-1] == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_rectangle(self):
        J = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        assert singular_values(J)[-1] == pytest.approx(3.0)


@st.composite
def full_rank_instances(draw):
    """(J, c, g, beta) with m <= 3 < n <= 6, entries spread over six decades."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m + 1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    J = rng.normal(size=(m, n)) * 10.0 ** draw(st.integers(-3, 3))
    s = np.linalg.svd(J, compute_uv=False)
    assume(s[-1] > 1e-6 * s[0])  # well inside the range where Cholesky succeeds
    beta = draw(st.sampled_from((0.7, 1.0, 5.0, 50.0)))
    return J, rng.normal(size=m), rng.normal(size=n) * 10.0 ** draw(st.integers(-3, 3)), beta


@st.composite
def step_instances(draw):
    """(J, c, g, beta): a random full-rank instance or one of the three
    problems at a random point near its start."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    beta = draw(st.sampled_from((0.7, 1.0, 5.0, 50.0)))
    name = draw(st.sampled_from((None, "HS7", "BT11", "HS40")))
    if name is None:
        return (*random_full_rank(rng), beta)
    p = get_problem(name)
    x = p.x_start + rng.uniform(-0.5, 0.5, size=p.n)
    J = p.eval_J(x)
    s = np.linalg.svd(J, compute_uv=False)
    assume(s[-1] > 1e-2 * s[0])
    return J, p.eval_c(x), p.eval_g(x), beta


class TestStepProperties:
    """The step satisfies the linearized constraints and splits orthogonally."""

    @settings(max_examples=200, deadline=None)
    @given(step_instances())
    def test_linearized_feasibility_and_orthogonal_split(self, instance):
        J, c, g, beta = instance
        step = solve_sqp_step(J, c, g, beta)
        scale = 1.0 + np.max(np.abs(c)) + np.max(np.abs(J)) * np.max(np.abs(step.d))
        assert np.max(np.abs(J @ step.d + c)) <= 1e-9 * scale
        uv = abs(np.dot(step.u, step.v))
        assert uv <= 1e-10 * (np.linalg.norm(step.u) * np.linalg.norm(step.v) + 1.0)


class TestBitwiseAgainstScipyWrappers:
    """The direct LAPACK calls give the same bits as cho_factor/cho_solve."""

    @settings(max_examples=300, deadline=None)
    @given(full_rank_instances())
    def test_step_kernels(self, instance):
        J, c, g, beta = instance
        step = solve_sqp_step(J, c, g, beta)
        d, v, u, lambda_hat = cho_reference_step(J, c, g, beta)
        assert np.array_equal(step.d, d)
        assert np.array_equal(step.v, v)
        assert np.array_equal(step.u, u)
        assert np.array_equal(step.lambda_hat, lambda_hat)
        solve = cho_gram_solver(J)
        assert np.array_equal(least_squares_multiplier(J, g), solve(J @ g))
        assert np.array_equal(project_tangent(J, g), g - J.T @ solve(J @ g))


class TestCholeskyBreakdownFallback:
    """Past the rank gate JJ' can still fail Cholesky; the pinv formula takes over."""

    @staticmethod
    def _nearly_singular(ratio=1e-9):
        # About half of such 3x5 instances break Cholesky; take the first.
        rng = np.random.default_rng(0)
        for _ in range(100):
            U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            V, _ = np.linalg.qr(rng.normal(size=(5, 3)))
            J = (U * np.array([1.0, 0.5, ratio])) @ V.T
            if dpotrf(J @ J.T, lower=1, clean=0)[1] > 0:
                return J, rng.normal(size=3), rng.normal(size=5)
        raise AssertionError("no Cholesky breakdown in 100 nearly singular instances")

    def test_ratio_1e9_passes_gate_and_uses_pinv(self):
        J, c, g = self._nearly_singular()
        s = np.linalg.svd(J, compute_uv=False)
        assert s[-1] > 1e-10 * s[0]
        step = solve_sqp_step(J, c, g, 50.0)
        gram_inv = np.linalg.pinv(J @ J.T)
        lambda_hat = gram_inv @ (J @ g)
        v = -J.T @ (gram_inv @ c)
        u = -(g - J.T @ lambda_hat) / 50.0
        assert np.array_equal(step.lambda_hat, lambda_hat)
        assert np.array_equal(step.v, v)
        assert np.array_equal(step.u, u)
        assert np.array_equal(step.d, v + u)
        assert np.array_equal(project_tangent(J, g), g - J.T @ lambda_hat)


@st.composite
def gate_instances(draw):
    """J with m <= 3 and m <= n <= 5: random full rank, or exactly rank deficient."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-20, 20))
    if draw(st.booleans()):
        return rng.normal(size=(m, n)) * scale
    # Small integer factors and a power-of-two scale keep the product exact.
    rank = draw(st.integers(0, m - 1))
    A = rng.integers(-3, 4, size=(m, rank)).astype(float)
    B = rng.integers(-3, 4, size=(rank, n)).astype(float)
    return (A @ B) * scale


class TestRankGate:
    """The dgesdd gate decides as numpy's SVD gate does."""

    @settings(max_examples=300, deadline=None)
    @given(gate_instances())
    def test_decision_matches_numpy(self, J):
        expected = np.linalg.svd(J, compute_uv=False)
        try:
            _, s = factor_gram(J)
        except SingularJacobianError as err:
            assert not svd_gate_passes(J)
            assert err.sigma_min == pytest.approx(expected[-1], rel=1e-12, abs=1e-14 * expected[0])
        else:
            assert svd_gate_passes(J)
            assert_allclose(s, expected, rtol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_linalg_error(self, value):
        J = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5]])
        J[1, 2] = value
        for call in (lambda: factor_gram(J), lambda: solve_sqp_step(J, np.ones(2), np.ones(3), 1.0)):
            with pytest.raises(NonFiniteJacobianError):
                call()
        assert issubclass(NonFiniteJacobianError, np.linalg.LinAlgError)

    def test_kernels_and_diagnostics_take_no_numpy_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        p = get_problem("BT11")
        J = p.eval_J(p.x_start)
        assert singular_values(J)[-1] > 0
        solve_sqp_step(J, p.eval_c(p.x_start), p.eval_g(p.x_start), 50.0)
        assert evaluate_diagnostics(p, p.x_start, 1.0, 0.9, 50.0).sigma_min > 0
