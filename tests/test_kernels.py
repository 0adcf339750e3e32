"""Tests for the step kernels against independent dense oracles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from helpers import (
    dense_kkt_step,
    explicit_projector,
    random_full_rank,
    svd_gate_passes,
)
from noisy_sqp import get_problem, kernels
from noisy_sqp.diagnostics import stationarity_psi
from noisy_sqp.kernels import (
    NonFiniteJacobianError,
    SingularJacobianError,
    factor_jacobian,
    project_tangent,
    solve_sqp_step,
)


def _multiplier(J, g):
    """The step's multiplier estimate lambda_hat = (JJ')^{-1} J g."""
    return solve_sqp_step(J, np.zeros(len(J)), g, 1.0).lambda_hat


class TestMultiplierEstimate:
    def test_gradient_in_row_space(self):
        lam = _multiplier(np.array([[1.0, 0.0]]), np.array([3.0, 4.0]))
        assert_allclose(lam, [3.0], atol=1e-14)

    def test_gradient_orthogonal_to_row_space(self):
        lam = _multiplier(np.array([[1.0, 0.0]]), np.array([0.0, 5.0]))
        assert_allclose(lam, [0.0], atol=1e-14)

    def test_matches_lstsq_oracle_on_random_instances(self):
        # lstsq solves min ||J' lam - g||, whose normal equations give
        # exactly (JJ')^{-1} J g.
        rng = np.random.default_rng(314)
        for _ in range(50):
            J, _, g = random_full_rank(rng)
            expected = np.linalg.lstsq(J.T, g, rcond=None)[0]
            assert_allclose(_multiplier(J, g), expected, atol=1e-10)

    def test_rank_deficient_raises_with_sigma(self):
        J = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(SingularJacobianError) as err:
            _multiplier(J, np.ones(2))
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
        (_, c), (g, J) = p.eval_fc(x), p.eval_gJ(x)
        step = solve_sqp_step(J, c, g, 50.0)
        assert_allclose(step.d, dense_kkt_step(J, c, g, 50.0), atol=1e-10)

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

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.nan])
    def test_nonpositive_beta_rejected(self, beta):
        with pytest.raises(ValueError, match="beta"):
            solve_sqp_step(np.array([[1.0, 0.0]]), np.zeros(1), np.zeros(2), beta)


class TestMinSingularValue:
    def test_unit_row(self):
        assert factor_jacobian(np.array([[1.0, 0.0]]))[1][-1] == pytest.approx(1.0)

    def test_dependent_rows(self):
        J = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(SingularJacobianError) as err:
            factor_jacobian(J)
        assert err.value.sigma_min == pytest.approx(0.0, abs=1e-15)

    def test_diagonal_rectangle(self):
        J = np.array([[3.0, 0.0, 0.0], [0.0, 4.0, 0.0]])
        assert factor_jacobian(J)[1][-1] == pytest.approx(3.0)


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
    (_, c), (g, J) = p.eval_fc(x), p.eval_gJ(x)
    s = np.linalg.svd(J, compute_uv=False)
    assume(s[-1] > 1e-2 * s[0])
    return J, c, g, beta


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


def _fortran_lanes(A):
    """The stack A with each (i, :, :) matrix laid out in Fortran order."""
    return np.ascontiguousarray(A.transpose(0, 2, 1)).transpose(0, 2, 1)


def _stacked_matvec(A, x):
    return (A @ x[..., None])[..., 0]


class TestBatchReadiness:
    """The step formulas stack: one np.linalg.svd over all instances of a
    shape gives every instance's step bit for bit.

    factor_jacobian returns Fortran-ordered U and Vt, and numpy's matmul
    picks its BLAS call by layout, so the stacked factors are laid out the
    same way per matrix (one copy of the whole stack) before the stacked
    products.
    """

    @pytest.mark.parametrize("shape", [(1, 2), (2, 4), (3, 5), (3, 3)])
    def test_step_equals_stacked_svd_formulas(self, shape):
        rng = np.random.default_rng(sum(shape))
        S, (m, n), beta = 40, shape, 5.0
        J = rng.normal(size=(S, m, n))
        c, g = rng.normal(size=(S, m)), rng.normal(size=(S, n))
        U, s, Vt = np.linalg.svd(J, full_matrices=False)
        assert np.all(s[:, -1] > 1e-10 * s[:, 0])
        U, Vt = _fortran_lanes(U), _fortran_lanes(Vt)
        V = Vt.transpose(0, 2, 1)
        vg = _stacked_matvec(Vt, g)
        lambda_hat = _stacked_matvec(U, vg / s)
        v = -_stacked_matvec(V, _stacked_matvec(U.transpose(0, 2, 1), c) / s)
        u = -(g - _stacked_matvec(V, vg)) / beta
        for i in range(S):
            step = solve_sqp_step(J[i], c[i], g[i], beta)
            assert np.array_equal(step.lambda_hat, lambda_hat[i])
            assert np.array_equal(step.v, v[i])
            assert np.array_equal(step.u, u[i])
            assert np.array_equal(step.d, v[i] + u[i])


@st.composite
def dot_instances(draw):
    """A Gaussian J of shape (1, 1), (1, 2), (2, 2), (3, 4) or (3, 5), scaled
    by 1e-8 to 1e8, and a generator for the vectors it multiplies."""
    m, n = draw(st.sampled_from([(1, 1), (1, 2), (2, 2), (3, 4), (3, 5)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(m, n)) * 10.0 ** draw(st.integers(-8, 8)), rng


def _vectors(rng, size):
    """A Gaussian vector, one of signed zeros, and a mix of the two."""
    x = rng.normal(size=size) * 10.0 ** rng.integers(-8, 9)
    zeros = np.where(rng.integers(0, 2, size=size) == 1, -0.0, 0.0)
    return x, zeros, np.where(rng.integers(0, 2, size=size) == 1, zeros, x)


class TestDotMatchesMatmul:
    """The kernels' products give the @ operator's bits on factor_jacobian's
    Fortran-ordered U and Vt and their transposes, a 1x1 factor and zero
    products of either sign among them.  (The iteration helpers multiply
    the oracle's J with @; see TestHelpersBitwiseAgainstNumpyWrappers.)"""

    @settings(max_examples=300, deadline=None)
    @given(dot_instances())
    def test_matrix_vector_products_bitwise(self, instance):
        J, rng = instance
        U, _, Vt = factor_jacobian(J)
        assert U.flags.f_contiguous and Vt.flags.f_contiguous
        for name, A in {"U": U, "U.T": U.T, "Vt": Vt, "Vt.T": Vt.T}.items():
            for x in _vectors(rng, A.shape[1]):
                assert kernels._dot(A, x).tobytes() == (A @ x).tobytes(), (name, x)
        for x in _vectors(rng, J.shape[1]):
            assert x.dot(x).tobytes() == np.dot(x, x).tobytes()

    @pytest.mark.parametrize("J,c,g", [
        ([[1.0]], [0.0], [-0.0]), ([[1.0]], [-0.0], [0.0]), ([[-2.0]], [-0.0], [-0.0]),
        ([[0.0, 1.0, 2.0]], [1.0], [-1.0, -0.0, 0.0]),
    ])
    def test_step_with_a_one_by_one_factor_bitwise(self, J, c, g):
        # ndarray.dot multiplies a 1x1 factor (U when m = 1, and Vt when J is
        # 1x1) as a scalar, so a zero product took the other sign than @ gives
        # it: u and lambda_hat at a 1x1 J, and lambda_hat at the 1x3 J.
        J, c, g = np.array(J), np.array(c), np.array(g)
        U, s, Vt = factor_jacobian(J)
        vg = Vt @ g
        v = -(Vt.T @ ((U.T @ c) / s))
        u = -(g - Vt.T @ vg) / 2.0
        step = solve_sqp_step(J, c, g, 2.0)
        for got, want in zip(step, (v + u, v, u, U @ (vg / s))):
            assert got.tobytes() == want.tobytes()


# Entries that stress the finiteness gate's sum of squares: it overflows on
# +-1e308, underflows on a subnormal, and meets infinities of both signs.
GATE_ENTRIES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -5e-324, -0.0, 0.0,
                1.0, -2.5]


class TestFinitenessGate:
    """factor_jacobian rejects J exactly when np.isfinite(J).all() is false,
    without a floating-point warning (a warning is an error in this suite)."""

    @staticmethod
    def _rejected(J):
        # A stub SVD keeps the check to the gate: LAPACK's SVD may never
        # return for an infinite J, and extreme finite ones may fail it.
        def unit_svd(J, **kwargs):
            m, n = J.shape
            return np.eye(m, order="F"), np.ones(m), np.eye(m, n, order="F")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_umath_linalg", SimpleNamespace(svd_s=unit_svd))
            try:
                factor_jacobian(J)
            except NonFiniteJacobianError:
                return True
        return False

    @pytest.mark.parametrize("rows", [
        [[math.inf, -math.inf]], [[1e308, 1e308]], [[-1e308, -1e308, 1e308]],
        [[math.nan, 1.0]], [[5e-324, -0.0]], [[-0.0, 0.0]], [[1e308, math.inf, -math.inf]],
    ])
    def test_special_entries(self, rows):
        J = np.array(rows)
        for A in (J, np.asfortranarray(J), np.repeat(J, 2, axis=1)[:, ::2]):
            assert self._rejected(A) is not bool(np.isfinite(A).all())

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_decides_as_isfinite(self, data):
        m = data.draw(st.integers(1, 3))
        n = data.draw(st.integers(m, 5))
        J = data.draw(arrays(np.float64, (m, n), elements=st.sampled_from(GATE_ENTRIES)))
        layout = data.draw(st.sampled_from(["C", "F", "strided"]))
        if layout == "F":
            J = np.asfortranarray(J)
        elif layout == "strided":
            J = np.repeat(J, 2, axis=1)[:, ::2]
        assert self._rejected(J) is not bool(np.isfinite(J).all())


class TestNearlySingularJacobian:
    """Past the rank gate the step stays linearized-feasible to round-off.

    A solve with JJ' would square the condition number of J, which near
    the gate leaves residuals far above round-off; the thin SVD does not.
    """

    @pytest.mark.parametrize("ratio", [1e-6, 1e-8, 1e-9])
    def test_linearized_feasibility(self, ratio):
        rng = np.random.default_rng(0)
        for _ in range(50):
            U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            V, _ = np.linalg.qr(rng.normal(size=(5, 3)))
            J = (U * np.array([1.0, 0.5, ratio])) @ V.T
            c, g = rng.normal(size=3), rng.normal(size=5)
            d = solve_sqp_step(J, c, g, 50.0).d
            scale = np.max(np.abs(J)) * np.max(np.abs(d)) + np.max(np.abs(c))
            assert np.max(np.abs(J @ d + c)) <= 1e-12 * scale


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
    """factor_jacobian's gate decides as numpy's SVD gate does, on the same factors."""

    @settings(max_examples=300, deadline=None)
    @given(gate_instances())
    def test_factors_equal_numpy_svd_bitwise_in_fortran_order(self, J):
        assume(svd_gate_passes(J))
        U, s, Vt = factor_jacobian(J)
        for got, want in zip((U, s, Vt), np.linalg.svd(J, full_matrices=False)):
            assert np.array_equal(got, want)
        assert U.flags.f_contiguous and Vt.flags.f_contiguous

    def test_nan_filled_svd_raises_linalg_error(self, monkeypatch):
        # The gufunc reports a LAPACK convergence failure only by NaN outputs.
        def nan_svd(J, **kwargs):
            m, n = J.shape
            k = min(m, n)
            return np.full((m, k), np.nan), np.full(k, np.nan), np.full((k, n), np.nan)

        monkeypatch.setattr(kernels, "_umath_linalg", SimpleNamespace(svd_s=nan_svd))
        J = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5]])
        with pytest.raises(np.linalg.LinAlgError, match="did not converge") as err:
            factor_jacobian(J)
        assert not isinstance(err.value, NonFiniteJacobianError)

    @settings(max_examples=300, deadline=None)
    @given(gate_instances())
    def test_decision_matches_numpy(self, J):
        expected = np.linalg.svd(J, compute_uv=False)
        try:
            _, s, _ = factor_jacobian(J)
        except SingularJacobianError as err:
            assert not svd_gate_passes(J)
            assert err.sigma_min == pytest.approx(expected[-1], rel=1e-12, abs=1e-14 * expected[0])
        else:
            assert svd_gate_passes(J)
            assert_allclose(s, expected, rtol=1e-12)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises_linalg_error(self, value):
        small = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.5]])
        small[1, 2] = value
        # LAPACK's SVD computing singular vectors never returned for this
        # one with inf at [0, 0]: the finiteness check has to come first.
        p = get_problem("BT11")
        _, bt11 = p.eval_gJ(p.x_start)
        bt11[0, 0] = value
        for J in (small, bt11):
            m, n = J.shape
            for call in (lambda: factor_jacobian(J),
                         lambda: solve_sqp_step(J, np.ones(m), np.ones(n), 1.0),
                         lambda: project_tangent(J, np.ones(n))):
                with pytest.raises(NonFiniteJacobianError):
                    call()
        assert issubclass(NonFiniteJacobianError, np.linalg.LinAlgError)

    def test_tall_jacobian_fails_gate(self):
        # More rows than columns: m - n singular values are zero, though
        # the thin SVD returns only the n nonzero ones.
        J = np.random.default_rng(7).normal(size=(3, 2))
        for call in (lambda: factor_jacobian(J),
                     lambda: solve_sqp_step(J, np.ones(3), np.ones(2), 1.0),
                     lambda: project_tangent(J, np.ones(2))):
            with pytest.raises(SingularJacobianError) as err:
                call()
            assert err.value.sigma_min == 0.0

    def test_kernels_and_diagnostics_take_no_numpy_svd(self, monkeypatch):
        # They call the LAPACK gufunc directly, not np.linalg.svd's wrapper.
        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        p = get_problem("BT11")
        (_, c), (g, J) = p.eval_fc(p.x_start), p.eval_gJ(p.x_start)
        assert factor_jacobian(J)[1][-1] > 0
        solve_sqp_step(J, c, g, 50.0)
        assert stationarity_psi(g, c, J, 1.0, 0.9, 50.0) > 0
