"""Tests for the stationarity measure psi and the KKT residual ||P g||."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from helpers import explicit_projector, kkt_residual, psi_reference, random_full_rank
from noisy_sqp import get_problem, reference_solution
from noisy_sqp.diagnostics import stationarity_psi
from noisy_sqp.kernels import factor_jacobian, least_squares_multiplier, project_tangent
from noisy_sqp.oracles import eval_exact


class TestStationarityPsi:
    def test_zero_at_kkt_point(self):
        J = np.array([[1.0, 0.0]])
        out = stationarity_psi(np.array([2.0, 0.0]), np.array([0.0]), J, 2.0, 0.9, 1.0)
        assert out == pytest.approx(0.0, abs=1e-20)

    def test_direct_arithmetic(self):
        J = np.array([[1.0, 0.0]])
        out = stationarity_psi(np.array([0.0, 1.0]), np.array([1.0]), J, 2.0, 0.9, 1.0)
        assert out == pytest.approx(2.8)

    def test_matches_explicit_projector(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            J, c, g = random_full_rank(rng)
            pg = explicit_projector(J) @ g
            expected = np.dot(pg, pg) / 50.0 + 3.0 * 0.9 * np.sum(np.abs(c))
            assert stationarity_psi(g, c, J, 3.0, 0.9, 50.0) == pytest.approx(expected, abs=1e-10)

    def test_monotone_in_penalty(self):
        rng = np.random.default_rng(12)
        J, c, g = random_full_rank(rng)
        lo = stationarity_psi(g, c, J, 1.0, 0.9, 50.0)
        hi = stationarity_psi(g, c, J, 5.0, 0.9, 50.0)
        if np.sum(np.abs(c)) > 0:
            assert hi > lo
        else:
            assert hi == lo

    @pytest.mark.parametrize("b_u", [0.0, -1.0, math.nan])
    def test_requires_positive_scale(self, b_u):
        with pytest.raises(ValueError):
            stationarity_psi(np.zeros(2), np.zeros(1), np.array([[1.0, 0.0]]), 1.0, 0.9, b_u)


class TestKktResidual:
    def test_zero(self):
        assert kkt_residual(np.zeros(2), np.array([[1.0, 0.0]]), np.zeros(1)) == 0.0

    def test_exact_stationarity(self):
        out = kkt_residual(np.array([2.0, 0.0]), np.array([[1.0, 0.0]]), np.array([-2.0]))
        assert out == pytest.approx(0.0, abs=1e-15)

    def test_unit_residual(self):
        out = kkt_residual(np.array([2.0, 1.0]), np.array([[1.0, 0.0]]), np.array([-2.0]))
        assert out == pytest.approx(1.0)

    def test_negated_multiplier_gives_projected_gradient_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            J, _, g = random_full_rank(rng)
            lam = least_squares_multiplier(J, g)
            residual = kkt_residual(g, J, -lam)
            assert abs(residual - np.linalg.norm(project_tangent(J, g))) <= 1e-10


class TestAtProblemPoints:
    """Feasibility, ||P g|| and psi from the exact oracles at a problem's points."""

    def test_clean_at_reference(self):
        p = get_problem("BT11")
        at = eval_exact(p, reference_solution("BT11").x_star)
        assert np.abs(at.c).sum() <= 1e-10
        assert np.linalg.norm(project_tangent(at.J, at.g)) <= 1e-10
        assert stationarity_psi(at.g, at.c, at.J, pi=10.0, tau=0.9, b_u=50.0) <= 1e-10
        assert factor_jacobian(at.J)[1][-1] > 0.1  # sigma_min

    def test_nonzero_away_from_solution(self):
        p = get_problem("HS7")
        at = eval_exact(p, p.x_start)
        assert np.abs(at.c).sum() > 1.0
        assert stationarity_psi(at.g, at.c, at.J, pi=10.0, tau=0.9, b_u=50.0) > 1.0


class TestPsiBitwise:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_np_sum_form(self, data):
        elements = data.draw(st.sampled_from(
            (st.floats(-1e6, 1e6), st.floats(allow_nan=True, allow_infinity=True))))
        n = data.draw(st.integers(1, 5))
        m = data.draw(st.integers(1, min(n, 3)))
        # A Gaussian J has full row rank with probability one.
        J = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(size=(m, n))
        g = data.draw(arrays(np.float64, n, elements=elements))
        c = data.draw(arrays(np.float64, m, elements=elements))
        pi, b_u = data.draw(st.floats(1e-6, 1e6)), data.draw(st.floats(1e-3, 1e3))
        tau = data.draw(st.floats(1e-3, 0.999))
        with np.errstate(all="ignore"):
            got = stationarity_psi(g, c, J, pi, tau, b_u)
            want = psi_reference(project_tangent(J, g), c, pi, tau, b_u)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
