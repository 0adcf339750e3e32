"""Tests for the stationarity measure psi and ||P g|| at problem points."""

import math

import numpy as np
import pytest

from helpers import explicit_projector, random_full_rank
from noisy_sqp import get_problem, reference_solution
from noisy_sqp.diagnostics import stationarity_psi
from noisy_sqp.kernels import factor_jacobian, project_tangent
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

