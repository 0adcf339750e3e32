"""Tests for the merit machinery, line search, and the full iteration."""

import math
from dataclasses import fields

import numpy as np
import pytest
from numpy.testing import assert_allclose

import noisy_sqp.solver as solver_module
from helpers import seed_sequence_rng
from noisy_sqp import (
    NoiseSpec,
    NoiseStream,
    Problem,
    SolverConfig,
    Status,
    check_termination,
    get_problem,
    linear_model,
    merit_value,
    reference_solution,
    relaxed_line_search,
    solve,
    update_penalty,
)


class TestMeritValue:
    def test_feasible_point(self):
        assert merit_value(1.0, np.array([0.0, 0.0]), 10.0) == 1.0

    def test_weighted_violation(self):
        assert merit_value(0.0, np.array([1.0, -2.0]), 2.0) == 6.0

    def test_at_hs7_optimum(self):
        assert merit_value(-math.sqrt(3.0), np.array([0.0]), 5.0) == -math.sqrt(3.0)

    def test_rejects_nonpositive_penalty(self):
        with pytest.raises(ValueError):
            merit_value(0.0, np.zeros(1), 0.0)


class TestLinearModel:
    def test_zero_step(self):
        out = linear_model(np.array([1.0, 2.0]), np.array([3.0]),
                           np.array([[1.0, 1.0]]), np.zeros(2), 2.0)
        assert out == 0.0

    def test_direct_arithmetic(self):
        out = linear_model(np.array([1.0, 0.0]), np.array([1.0]),
                           np.array([[1.0, 0.0]]), np.array([-1.0, 0.0]), 2.0)
        assert out == pytest.approx(-3.0)

    def test_consistent_with_step_example(self):
        out = linear_model(np.array([0.0, 1.0]), np.array([2.0]),
                           np.array([[1.0, 0.0]]), np.array([-2.0, -1.0]), 3.0)
        assert out == pytest.approx(-7.0)


class TestUpdatePenalty:
    def test_keeps_dominating_value(self):
        assert update_penalty(10.0, np.array([0.5]), 0.9) == 10.0

    def test_doubles_past_threshold(self):
        assert update_penalty(1.0, np.array([0.5]), 0.9) == pytest.approx(10.0)

    def test_boundary_keeps(self):
        # threshold is exactly pi; the comparison is >=
        assert update_penalty(10.0, np.array([1.0]), 0.9) == 10.0


class TestRelaxedLineSearch:
    def test_accepts_full_step(self):
        out = relaxed_line_search(lambda a: 5.0 - 0.5 * a, 5.0, -1.0, 0.1, 0.0)
        assert out == (1.0, 0)

    def test_relaxation_absorbs_noise_level_increase(self):
        out = relaxed_line_search(lambda a: 5.0 + 0.05, 5.0, -1.0, 0.1, 0.2)
        assert out == (1.0, 0)

    def test_unsatisfiable_without_relaxation(self):
        out = relaxed_line_search(lambda a: 5.0 + a, 5.0, -1.0, 0.5, 0.0, max_backtracks=30)
        assert out is None

    def test_halving_bookkeeping(self):
        # fails until the step is below 1/8
        out = relaxed_line_search(lambda a: 5.0 + (1.0 if a > 0.15 else -a), 5.0,
                                  -1.0, 0.5, 0.0)
        alpha, backtracks = out
        assert alpha == pytest.approx(0.125)
        assert backtracks == 3
        assert alpha == 1.0 * 2.0 ** -backtracks

    def test_consumes_one_evaluation_per_trial(self):
        calls = []

        def merit_at(a):
            calls.append(a)
            return 5.0 + a

        assert relaxed_line_search(merit_at, 5.0, -1.0, 0.5, 0.0, max_backtracks=10) is None
        assert len(calls) == 11


class TestCheckTermination:
    def test_exact_zero(self):
        assert check_termination(np.zeros(1), np.zeros(2), np.array([[1.0, 0.0]]),
                                 np.zeros(1), 0.0, 0.0, 0.0)

    def test_feasibility_gate(self):
        assert not check_termination(np.array([0.02]), np.zeros(2), np.array([[1.0, 0.0]]),
                                     np.zeros(1), 0.01, 1e9, 1e9)

    def test_exact_kkt_pair(self):
        assert check_termination(np.array([0.0]), np.array([0.5, 0.0]),
                                 np.array([[1.0, 0.0]]), np.array([-0.5]),
                                 1e-3, 1e-3, 1e-3)


def _exact_kkt(p, x):
    g, J = p.eval_g(x), p.eval_J(x)
    lam = np.linalg.solve(J @ J.T, J @ g)
    return float(np.linalg.norm(g - J.T @ lam))


class TestSolveExact:
    def test_converges_on_all_problems(self):
        for name in ("HS7", "BT11", "HS40"):
            p = get_problem(name)
            cfg = SolverConfig(beta=3.0, max_iters=200, relaxation_enabled=False)
            result = solve(p, NoiseSpec(0.0, 0.0, seed=0), cfg)
            assert result.status is Status.CONVERGED, name
            assert np.sum(np.abs(p.eval_c(result.x))) <= 1e-8
            assert _exact_kkt(p, result.x) <= 1e-8

    def test_default_beta_reaches_merit_floor(self):
        # With the experiment default beta=50 the merit comparison hits
        # double rounding near 1e-7; the run stays feasible and parked.
        p = get_problem("HS7")
        cfg = SolverConfig(max_iters=500, termination_enabled=False)
        result = solve(p, NoiseSpec(0.0, 0.0, seed=0), cfg)
        assert result.status is Status.MAX_ITERS
        assert np.sum(np.abs(p.eval_c(result.x))) <= 1e-8
        assert _exact_kkt(p, result.x) <= 1e-5

    def test_zero_noise_descent_is_classical(self):
        p = get_problem("BT11")
        cfg = SolverConfig(beta=3.0, max_iters=200, relaxation_enabled=False,
                           termination_enabled=False)
        result = solve(p, NoiseSpec(0.0, 0.0, seed=0), cfg)
        for row in result.trace:
            if row.line_search_failed or math.isnan(row.alpha):
                continue
            assert row.eps_R == 0.0
            armijo_rhs = row.merit_noisy + 0.1 * row.alpha * row.model_value
            assert row.merit_trial <= armijo_rhs + 1e-12
            if row.model_value < 0:
                assert row.merit_trial <= row.merit_noisy + 1e-12


class TestSolveNoisy:
    def test_classical_search_fails_under_noise(self):
        p = get_problem("HS7")
        spec = NoiseSpec(1e-5, 1e-5, seed=1)
        cfg = SolverConfig(max_iters=500, termination_enabled=False,
                           relaxation_enabled=False).with_estimates(spec.bounds(p.n, p.m))
        result = solve(p, spec, cfg)
        assert result.status is Status.LINE_SEARCH_FAILURE
        assert result.failure_iter is not None and result.failure_iter < 500
        assert result.trace[-1].line_search_failed

    def test_relaxed_search_tracks_solution(self):
        p = get_problem("HS7")
        ref = reference_solution("HS7")
        spec = NoiseSpec(1e-5, 1e-5, seed=1)
        cfg = SolverConfig(max_iters=500, termination_enabled=False).with_estimates(
            spec.bounds(p.n, p.m))
        result = solve(p, spec, cfg, x_ref=ref.x_star)
        assert result.status is Status.MAX_ITERS
        assert min(r.dist_to_ref for r in result.trace) <= 1e-5

    def test_relaxation_never_fails_at_any_level(self):
        for name in ("HS7", "BT11", "HS40"):
            p = get_problem(name)
            for eps in (1e-5, 1e-3, 1e-1):
                spec = NoiseSpec(eps, eps, seed=0)
                cfg = SolverConfig(max_iters=1000, termination_enabled=False).with_estimates(
                    spec.bounds(p.n, p.m))
                result = solve(p, spec, cfg)
                assert result.status is Status.MAX_ITERS, (name, eps)

    def test_sufficient_decrease_ledger(self):
        p = get_problem("BT11")
        spec = NoiseSpec(1e-3, 1e-3, seed=3)
        cfg = SolverConfig(max_iters=300, termination_enabled=False).with_estimates(
            spec.bounds(p.n, p.m))
        result = solve(p, spec, cfg)
        accepted = [r for r in result.trace if not math.isnan(r.alpha)]
        assert accepted
        for row in accepted:
            rhs = row.merit_noisy + cfg.nu * row.alpha * row.model_value + row.eps_R
            assert row.merit_trial <= rhs + 1e-12
            assert row.alpha == cfg.alpha_init * 2.0 ** -row.backtracks

    def test_penalty_monotone_and_settles(self):
        p = get_problem("HS40")
        spec = NoiseSpec(1e-3, 1e-3, seed=2)
        cfg = SolverConfig(max_iters=1000, termination_enabled=False).with_estimates(
            spec.bounds(p.n, p.m))
        result = solve(p, spec, cfg)
        pis = [r.pi for r in result.trace]
        assert all(b >= a for a, b in zip(pis, pis[1:]))
        tail = pis[len(pis) // 5:]
        assert len(set(tail)) == 1

    def test_stop_test_uses_estimates(self):
        p = get_problem("HS7")
        spec = NoiseSpec(1e-5, 1e-5, seed=1)
        cfg = SolverConfig(max_iters=5000).with_estimates(spec.bounds(p.n, p.m))
        result = solve(p, spec, cfg)
        assert result.status is Status.CONVERGED
        assert result.trace[-1].alpha != result.trace[-1].alpha  # nan: no step taken

    def test_singular_jacobian_is_a_status(self):
        p = Problem(
            "degenerate", 2, 1,
            eval_f=lambda x: float(x[0] ** 2 + x[1] ** 2),
            eval_c=lambda x: np.array([0.0 * x[0]]),
            eval_g=lambda x: 2.0 * x,
            eval_J=lambda x: np.zeros((1, 2)),
            x_start=np.ones(2),
        )
        result = solve(p, NoiseSpec(0.0, 0.0, seed=0), SolverConfig(max_iters=10))
        assert result.status is Status.SINGULAR_JACOBIAN
        assert len(result.trace) == 1

    def test_collect_psi_populates_diagnostics(self):
        p = get_problem("HS7")
        ref = reference_solution("HS7")
        cfg = SolverConfig(beta=3.0, max_iters=100, termination_enabled=False)
        result = solve(p, NoiseSpec(0.0, 0.0, seed=0), cfg, x_ref=ref.x_star, collect_psi=True)
        psis = np.array([r.psi for r in result.trace])
        assert np.all(np.isfinite(psis)) and np.all(psis >= 0)
        assert psis[-1] < psis[0]


def _row_bits(row):
    return [np.asarray(getattr(row, f.name), dtype=float).tobytes() for f in fields(row)]


class TestOracleFastPathsPreserveRuns:
    """Runs are bitwise those of per-evaluation SeedSequence generators and full trials."""

    @pytest.mark.parametrize("eps", [1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize("name", ["HS7", "BT11", "HS40"])
    def test_rows_match_reference_oracle(self, name, eps, monkeypatch):
        p = get_problem(name)
        spec = NoiseSpec(eps, eps, seed=13)
        x_ref = reference_solution(name).x_star
        relaxed = SolverConfig(max_iters=120, termination_enabled=False).with_estimates(
            spec.bounds(p.n, p.m))
        configs = (relaxed, SolverConfig(max_iters=120, relaxation_enabled=False))

        def runs():
            return [solve(p, spec, cfg, x_ref=x_ref, collect_psi=True) for cfg in configs]

        fast = runs()

        def per_evaluation_rng(stream):
            rng = seed_sequence_rng(stream.seed, stream.counter)
            stream.counter += 1
            return rng

        eval_noisy = solver_module.eval_noisy

        def full_evaluation(p, x, spec, stream, derivatives=True):
            return eval_noisy(p, x, spec, stream)

        monkeypatch.setattr(NoiseStream, "next_rng", per_evaluation_rng)
        monkeypatch.setattr(solver_module, "eval_noisy", full_evaluation)
        reference = runs()

        assert sum(r.backtracks for run in fast for r in run.trace) > 0
        for a, b in zip(fast, reference):
            assert a.status is b.status
            assert a.x.tobytes() == b.x.tobytes()
            assert [_row_bits(r) for r in a.trace] == [_row_bits(r) for r in b.trace]


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nu": 0.0},
            {"nu": 1.0},
            {"tau": 1.2},
            {"beta": -1.0},
            {"pi_init": 0.0},
            {"alpha_init": 0.0},
            {"eps_f_est": -1.0},
            {"max_iters": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_with_estimates_scales_all_four(self):
        spec = NoiseSpec(1e-3, 1e-3)
        cfg = SolverConfig().with_estimates(spec.bounds(4, 3), 10.0)
        assert cfg.eps_f_est == pytest.approx(1e-2)
        assert cfg.eps_c_est == pytest.approx(3e-2)
        assert cfg.eps_g_est == pytest.approx(2e-2)
        assert cfg.eps_J_est == pytest.approx(6e-2)
