"""Tests for the merit machinery, line search, and the full iteration."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

import noisy_sqp.solver as solver_module
from helpers import (
    check_termination_reference,
    linear_model_reference,
    merit_value_reference,
    per_evaluation_draws,
    random_full_rank,
    reference_solve,
    two_step_eval_noisy,
    update_penalty_reference,
)
from noisy_sqp import (
    NoiseSpec,
    NoiseStream,
    Problem,
    SolverConfig,
    Status,
    get_problem,
    reference_solution,
    solve,
)
from noisy_sqp.diagnostics import stationarity_psi
from noisy_sqp.kernels import (SingularJacobianError, factor_jacobian, project_tangent,
                               solve_sqp_step)
from noisy_sqp.oracles import _l1, _linf, eval_exact
from noisy_sqp.solver import (
    check_termination,
    linear_model,
    merit_value,
    relaxed_line_search,
    update_penalty,
)


class TestMeritValue:
    def test_feasible_point(self):
        assert merit_value(1.0, _l1(np.array([0.0, 0.0])), 10.0) == 1.0

    def test_weighted_violation(self):
        assert merit_value(0.0, _l1(np.array([1.0, -2.0])), 2.0) == 6.0

    def test_at_hs7_optimum(self):
        assert merit_value(-math.sqrt(3.0), _l1(np.array([0.0])), 5.0) == -math.sqrt(3.0)

    @pytest.mark.parametrize("pi", [0.0, -1.0, math.nan])
    def test_rejects_nonpositive_penalty(self, pi):
        with pytest.raises(ValueError):
            merit_value(0.0, _l1(np.zeros(1)), pi)


class TestLinearModel:
    def test_zero_step(self):
        c = np.array([3.0])
        out = linear_model(np.array([1.0, 2.0]), c,
                           np.array([[1.0, 1.0]]), np.zeros(2), 2.0, _l1(c))
        assert out == 0.0

    def test_direct_arithmetic(self):
        c = np.array([1.0])
        out = linear_model(np.array([1.0, 0.0]), c,
                           np.array([[1.0, 0.0]]), np.array([-1.0, 0.0]), 2.0, _l1(c))
        assert out == pytest.approx(-3.0)

    def test_consistent_with_step_example(self):
        c = np.array([2.0])
        out = linear_model(np.array([0.0, 1.0]), c,
                           np.array([[1.0, 0.0]]), np.array([-2.0, -1.0]), 3.0, _l1(c))
        assert out == pytest.approx(-7.0)


class TestUpdatePenalty:
    def test_keeps_dominating_value(self):
        assert update_penalty(10.0, 0.5, 0.9) == 10.0

    def test_doubles_past_threshold(self):
        assert update_penalty(1.0, 0.5, 0.9) == pytest.approx(10.0)

    def test_boundary_keeps(self):
        # threshold is exactly pi; the comparison is >=
        assert update_penalty(10.0, 1.0, 0.9) == 10.0


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


def _stop(c, g, J, lambda_hat, eps_c, eps_g, eps_J):
    """check_termination fed the two norms the way solve computes them."""
    lam_inf = float(np.abs(lambda_hat).max())
    return check_termination(_l1(c), g, J, lambda_hat, lam_inf, eps_c, eps_g, eps_J)


class TestCheckTermination:
    def test_exact_zero(self):
        assert _stop(np.zeros(1), np.zeros(2), np.array([[1.0, 0.0]]),
                     np.zeros(1), 0.0, 0.0, 0.0)

    def test_feasibility_gate(self):
        assert not _stop(np.array([0.02]), np.zeros(2), np.array([[1.0, 0.0]]),
                         np.zeros(1), 0.01, 1e9, 1e9)

    def test_exact_kkt_pair(self):
        # g = J' lambda_hat: the least-squares multiplier of g = (0.5, 0)
        assert _stop(np.array([0.0]), np.array([0.5, 0.0]),
                     np.array([[1.0, 0.0]]), np.array([0.5]),
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
            assert row.alpha == 2.0 ** -row.backtracks

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

    @pytest.mark.parametrize("x_ref", [np.array([0.0]), np.zeros((1, 5)), np.zeros(4)])
    def test_x_ref_of_wrong_shape_rejected_before_any_evaluation(self, x_ref, monkeypatch):
        # A (1,) or (1, n) reference would broadcast against x and record
        # a distance that is not to the reference.
        def no_eval(*args, **kwargs):
            raise AssertionError("oracle evaluated before x_ref was checked")

        monkeypatch.setattr(solver_module, "eval_noisy", no_eval)
        with pytest.raises(ValueError, match=r"shape .* expected \(5,\)"):
            solve(get_problem("HS40"), NoiseSpec(1e-3, 1e-3), SolverConfig(max_iters=5),
                  x_ref=x_ref)

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

        eval_noisy = solver_module.eval_noisy

        def full_evaluation(p, x, stream, derivatives=True):
            return eval_noisy(p, x, stream)

        monkeypatch.setattr(NoiseStream, "next_rng", per_evaluation_draws)
        monkeypatch.setattr(solver_module, "eval_noisy", full_evaluation)
        reference = runs()

        assert sum(r.backtracks for run in fast for r in run.trace) > 0
        for a, b in zip(fast, reference):
            assert a.status is b.status
            assert a.x.tobytes() == b.x.tobytes()
            assert [_row_bits(r) for r in a.trace] == [_row_bits(r) for r in b.trace]


class TestOnePassOraclePreservesRuns:
    """Runs are bitwise those of the uncached, per-evaluation SeedSequence,
    two-step oracle path with x_{k+1} recomputed as x_k + alpha_k * d_k."""

    @pytest.mark.parametrize("eps", [1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize("name", ["HS7", "BT11", "HS40"])
    def test_rows_match_earlier_oracle_path(self, name, eps, monkeypatch):
        p = get_problem(name)
        spec = NoiseSpec(eps, eps, seed=41)
        x_ref = reference_solution(name).x_star
        relaxed = SolverConfig(max_iters=150, termination_enabled=False).with_estimates(
            spec.bounds(p.n, p.m))
        configs = (relaxed, SolverConfig(max_iters=150, relaxation_enabled=False))

        def runs():
            return [solve(p, spec, cfg, x_ref=x_ref) for cfg in configs]

        fast = runs()
        steps = []
        solve_sqp_step = solver_module.solve_sqp_step

        def recorded_step(*args):
            steps.append(solve_sqp_step(*args))
            return steps[-1]

        monkeypatch.setattr(NoiseStream, "next_rng", per_evaluation_draws)
        monkeypatch.setattr(solver_module, "eval_noisy", two_step_eval_noisy)
        monkeypatch.setattr(solver_module, "solve_sqp_step", recorded_step)
        reference = runs()

        assert sum(r.backtracks for run in fast for r in run.trace) > 0
        assert len(steps) == sum(len(run.trace) for run in reference)
        run_steps = iter(steps)
        for a, b in zip(fast, reference):
            assert a.status is b.status
            assert a.x.tobytes() == b.x.tobytes()
            assert [_row_bits(r) for r in a.trace] == [_row_bits(r) for r in b.trace]
            ends = [r.x for r in b.trace[1:]] + [b.x]
            for row, step, x_next in zip(b.trace, run_steps, ends):
                if math.isfinite(row.alpha):
                    assert x_next.tobytes() == (row.x + row.alpha * step.d).tobytes()


class TestIterationMatchesReference:
    """solve is bitwise the iteration written on the numpy-wrapper helpers,
    each recomputing its own norms, with the stop test on the negated
    multiplier."""

    @pytest.mark.parametrize("eps", [1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize("name", ["HS7", "BT11", "HS40"])
    def test_rows_match_reference_solve(self, name, eps):
        p = get_problem(name)
        spec = NoiseSpec(eps, eps, seed=29)
        x_ref = reference_solution(name).x_star
        base = SolverConfig(max_iters=150)
        bounds = spec.bounds(p.n, p.m)
        runs = [
            (replace(base, termination_enabled=False).with_estimates(bounds), True),
            (replace(base, relaxation_enabled=False).with_estimates(bounds), False),
            *((base.with_estimates(bounds, mult), False) for mult in (1e-3, 1.0, 1e3)),
        ]
        statuses = []
        for cfg, collect_psi in runs:
            a = solve(p, spec, cfg, x_ref=x_ref, collect_psi=collect_psi)
            b = reference_solve(p, spec, cfg, x_ref=x_ref, collect_psi=collect_psi)
            assert a.status is b.status
            assert a.x.tobytes() == b.x.tobytes()
            assert [_row_bits(r) for r in a.trace] == [_row_bits(r) for r in b.trace]
            statuses.append(a.status)
        # The stop test fires, at the latest with the overestimated bounds.
        assert statuses[-1] is Status.CONVERGED

    # A rank-deficient J after the iterates blow up, and steps so long that
    # the problem callbacks overflow at every trial of the first search.
    @pytest.mark.parametrize("name, beta, seed, status", [
        ("BT11", 0.01, 2, Status.SINGULAR_JACOBIAN),
        ("HS7", 1e-100, 0, Status.NONFINITE),
        ("HS40", 1e-100, 0, Status.NONFINITE),
        ("BT11", 1e-300, 0, Status.NONFINITE),
    ])
    @pytest.mark.parametrize("relaxation", [True, False])
    def test_terminal_exits_match_reference_solve(self, name, beta, seed, status, relaxation):
        p = get_problem(name)
        spec = NoiseSpec(1e-3, 1e-3, seed=seed)
        cfg = SolverConfig(beta=beta, relaxation_enabled=relaxation).with_estimates(
            spec.bounds(p.n, p.m))
        x_ref = reference_solution(name).x_star
        a = solve(p, spec, cfg, x_ref=x_ref, collect_psi=True)  # RuntimeWarning is an error here
        # The reference's numpy-scalar merit warns where inf - inf gives NaN.
        with np.errstate(invalid="ignore"):
            b = reference_solve(p, spec, cfg, x_ref=x_ref, collect_psi=True)
        assert a.status is b.status is status
        assert a.x.tobytes() == b.x.tobytes()
        assert [_row_bits(r) for r in a.trace] == [_row_bits(r) for r in b.trace]
        last = a.trace[-1]
        assert math.isnan(last.alpha) and math.isnan(last.merit_trial)
        assert last.line_search_failed is (status is Status.NONFINITE)


class TestPsiReadsTheIterateEvaluation:
    """psi comes from the exact g, c and J of the noisy evaluation at x_k."""

    @staticmethod
    def _counted(p):
        calls = dict.fromkeys("fcgJ", 0)

        def counted(quantity):
            clean = getattr(p, f"eval_{quantity}")

            def callback(x):
                calls[quantity] += 1
                return clean(x)
            return callback

        return replace(p, **{f"eval_{q}": counted(q) for q in calls}), calls

    def test_each_derivative_is_evaluated_once_per_iteration(self):
        p, calls = self._counted(get_problem("BT11"))
        spec = NoiseSpec(1e-3, 1e-3, seed=3)
        cfg = SolverConfig(max_iters=60, termination_enabled=False).with_estimates(
            spec.bounds(p.n, p.m))
        result = solve(p, spec, cfg, x_ref=reference_solution("BT11").x_star,
                       collect_psi=True)
        assert result.status is Status.MAX_ITERS
        iters = len(result.trace)
        trials = sum(r.backtracks + 1 for r in result.trace)
        assert np.all(np.isfinite([r.psi for r in result.trace]))
        assert calls == {"f": iters + trials, "c": iters + trials, "g": iters, "J": iters}

    @pytest.mark.parametrize("eps", [1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize("name", ["HS7", "BT11", "HS40"])
    def test_psi_equals_a_fresh_exact_evaluation(self, name, eps):
        p = get_problem(name)
        spec = NoiseSpec(eps, eps, seed=17)
        cfg = SolverConfig(max_iters=150, termination_enabled=False).with_estimates(
            spec.bounds(p.n, p.m))
        result = solve(p, spec, cfg, x_ref=reference_solution(name).x_star, collect_psi=True)
        expected = [stationarity_psi(p.eval_g(r.x), p.eval_c(r.x), p.eval_J(r.x), r.pi,
                                     cfg.tau, cfg.beta) for r in result.trace]
        assert np.array([r.psi for r in result.trace]).tobytes() == np.array(expected).tobytes()


def _random_problem(seed):
    """Strictly convex separable quadratic objective under full-rank linear constraints."""
    rng = np.random.default_rng(seed)
    A, b, h = random_full_rank(rng, n_max=5)
    m, n = A.shape
    H = rng.uniform(0.5, 5.0, size=n)
    return Problem(
        f"random{seed}", n, m,
        eval_f=lambda x: 0.5 * (H * x) @ x + h @ x,
        eval_c=lambda x: A @ x - b,
        eval_g=lambda x: H * x + h,
        eval_J=lambda x: A.copy(),
        x_start=rng.normal(size=n),
    )


PROBLEMS = st.one_of(st.sampled_from(["HS7", "BT11", "HS40"]),
                     st.integers(0, 2**32 - 1).map(_random_problem))
EPS = st.sampled_from([1e-5, 1e-3, 1e-1])
NOISE_SEEDS = st.integers(0, 2**32 - 1)


def _problem(p):
    return get_problem(p) if isinstance(p, str) else p


def _logged_solve(p, spec, cfg):
    """solve, plus per evaluation whether it was full and the stream counter after it."""
    calls = []
    eval_noisy = solver_module.eval_noisy

    def logged(p, x, stream, derivatives=True):
        out = eval_noisy(p, x, stream, derivatives)
        calls.append((derivatives, stream.counter))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "eval_noisy", logged)
        result = solve(p, spec, cfg)
    return result, calls


class TestIterationProperties:
    """Invariants of whole runs on the three problems and on random full-rank instances."""

    @settings(max_examples=40, deadline=None)
    @given(p=PROBLEMS, eps=EPS, seed=NOISE_SEEDS, relaxed=st.booleans(), stop=st.booleans())
    @example(p="HS7", eps=1e-1, seed=0, relaxed=False, stop=False)  # a failed search
    @example(p="BT11", eps=1e-3, seed=0, relaxed=True, stop=True)   # a stop
    def test_counter_advances_by_one_plus_trials_and_penalty_never_decreases(
            self, p, eps, seed, relaxed, stop):
        p = _problem(p)
        spec = NoiseSpec(eps, eps, seed=seed)
        cfg = SolverConfig(max_iters=60, relaxation_enabled=relaxed,
                           termination_enabled=stop).with_estimates(spec.bounds(p.n, p.m))
        result, calls = _logged_solve(p, spec, cfg)
        # Every evaluation draws exactly one counter, in call order.
        assert [counter for _, counter in calls] == list(range(1, len(calls) + 1))
        starts = [i for i, (full, _) in enumerate(calls) if full]
        assert len(starts) == len(result.trace) and starts[:1] == [0]
        trials = [b - a - 1 for a, b in zip(starts, starts[1:] + [len(calls)])]
        for row, n_trials in zip(result.trace, trials):
            if row.line_search_failed:
                assert n_trials == cfg.max_backtracks + 1
            elif math.isnan(row.alpha):  # stop, singular or non-finite
                assert n_trials == 0
            else:
                assert n_trials == row.backtracks + 1
        pis = [r.pi for r in result.trace]
        assert all(b >= a for a, b in zip(pis, pis[1:]))

    @settings(max_examples=40, deadline=None)
    @given(p=PROBLEMS, eps=EPS, seed=NOISE_SEEDS, multiplier=st.floats(1.0, 1e3),
           stop=st.booleans())
    def test_relaxed_search_never_fails_when_noise_is_within_estimates(
            self, p, eps, seed, multiplier, stop):
        p = _problem(p)
        spec = NoiseSpec(eps, eps, seed=seed)
        cfg = SolverConfig(max_iters=60, termination_enabled=stop).with_estimates(
            spec.bounds(p.n, p.m), multiplier)
        result = solve(p, spec, cfg)
        assert result.status is not Status.LINE_SEARCH_FAILURE
        assert not any(r.line_search_failed for r in result.trace)


# Entries either finite with magnitude at most 1e6, or any float: hypothesis
# then mixes NaN, +-inf and its own extremes in.
FINITE_ENTRIES = st.floats(-1e6, 1e6)
ANY_ENTRIES = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def helper_inputs(draw):
    """Arguments of the iteration helpers with m <= 3 and m <= n <= 5."""
    elements = draw(st.sampled_from((FINITE_ENTRIES, ANY_ENTRIES)))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 5))

    def vec(size):
        return draw(arrays(np.float64, size, elements=elements))

    return {
        "f": draw(elements), "c": vec(m), "g": vec(n), "d": vec(n), "lam": vec(m),
        "J": draw(arrays(np.float64, (m, n), elements=elements)),
        "pi": draw(st.floats(1e-6, 1e6)), "tau": draw(st.floats(1e-3, 0.999)),
        "eps": [draw(st.floats(0.0, 1e7)) for _ in range(3)],
    }


def _bits(value):
    return np.float64(value).tobytes()


def _nan(payload):
    """A quiet NaN carrying ``payload`` in its low mantissa bits."""
    return float(np.array(0x7FF8000000000000 | payload, dtype=np.uint64).view(np.float64))


def _same(x, y):
    """Equal bits, or both NaN.

    Which operand's payload a NaN sum carries is not stable: CPython 3.11
    takes y's for ``x + y`` until it specializes the add, then x's.  No
    output carries a payload, so two NaNs match; a NaN never matches a number.
    """
    return (math.isnan(x) and math.isnan(y)) or _bits(x) == _bits(y)


class TestHelpersBitwiseAgainstNumpyWrappers:
    """The helpers give the bits of their np.sum / np.max / np.linalg.norm forms,
    and the projection and psi those of their @ / np.dot / .sum() forms."""

    @settings(max_examples=300, deadline=None)
    @given(helper_inputs())
    @example({"f": _nan(1), "c": np.array([_nan(2)]), "g": np.array([1.0, 2.0]),
              "d": np.array([0.5, -0.5]), "lam": np.array([1.0]),
              "J": np.array([[1.0, 3.0]]), "pi": 1.0, "tau": 0.5, "eps": [0.0, 1.0, 1.0]})
    # Two inputs on which ndarray.dot would not give @'s bits: an infinite J
    # against a zero multiplier, where the product's inner dimension is 1 and
    # the dgemv behind .dot skips the entry that @ multiplies into NaN, and a J
    # whose strided view .dot multiplies through a contiguous copy.
    @example({"f": 0.0, "c": np.array([0.0]), "g": np.array([0.0, 0.0]),
              "d": np.array([0.0, 0.0]), "lam": np.array([0.0]),
              "J": np.array([[math.inf, math.inf]]), "pi": 1.0, "tau": 0.5, "eps": [0.0] * 3})
    @example({"f": 0.0, "c": np.array([0.61, -0.65]), "g": np.array([1.34, 0.59, -0.4]),
              "d": np.array([0.43, 0.18, -0.07]), "lam": np.array([1.0, 1.0]),
              "J": np.array([[0.61, -0.46, -0.26], [1.3, -0.91, -1.02]]), "pi": 1.0,
              "tau": 0.5, "eps": [0.0] * 3})
    def test_helpers_match(self, a):
        # The reference stop test takes the multiplier in its g + J' lam
        # convention, the library the least-squares estimate itself.
        lam_hat = -a["lam"]
        with np.errstate(all="ignore"):
            c_l1, lam_inf = _l1(a["c"]), _linf(lam_hat)
            assert _same(merit_value(a["f"], c_l1, a["pi"]),
                         merit_value_reference(a["f"], a["c"], a["pi"]))
            assert _same(update_penalty(a["pi"], lam_inf, a["tau"]),
                         update_penalty_reference(a["pi"], lam_hat, a["tau"]))
            # J also as a strided view, as a callback may return it.
            for J in (a["J"], np.repeat(a["J"], 2, axis=1)[:, ::2]):
                assert _same(linear_model(a["g"], a["c"], J, a["d"], a["pi"], c_l1),
                             linear_model_reference(a["g"], a["c"], J, a["d"], a["pi"]))
                # A loose eps_c takes every finite c on to the residual clause,
                # and a bound equal to the reference residual tests it at the edge.
                stop_args = (a["c"], a["g"], J, a["lam"], *a["eps"])
                edge = float(np.linalg.norm(a["g"] + J.T @ a["lam"]))
                loose_stop_args = (*stop_args[:4], math.inf, edge, 0.0)
                for args in (stop_args, loose_stop_args):
                    assert check_termination(c_l1, a["g"], J, lam_hat, lam_inf,
                                             *args[4:]) == check_termination_reference(*args)

    @settings(max_examples=300, deadline=None)
    @given(helper_inputs())
    # A 1x1 J, whose factors ndarray.dot multiplies as scalars, against a
    # negative zero gradient.
    @example({"f": 0.0, "c": np.array([0.0]), "g": np.array([-0.0]), "d": np.array([0.0]),
              "lam": np.array([0.0]), "J": np.array([[1.0]]), "pi": 1.0, "tau": 0.5,
              "eps": [0.0] * 3})
    def test_projection_and_psi_match(self, a):
        J, g, c, pi, tau = a["J"], a["g"], a["c"], a["pi"], a["tau"]
        b_u = 1.0 + a["eps"][0]
        calls = (lambda: project_tangent(J, g), lambda: stationarity_psi(g, c, J, pi, tau, b_u))
        with np.errstate(all="ignore"):
            try:
                _, _, Vt = factor_jacobian(J)
            except (SingularJacobianError, np.linalg.LinAlgError) as err:
                for call in calls:
                    with pytest.raises(type(err)):
                        call()
                return
            pg = g - Vt.T @ (Vt @ g)
            psi = float(np.dot(pg, pg) / b_u + pi * tau * np.abs(c).sum())
            got_pg, got_psi = calls[0](), calls[1]()
        assert all(_same(x, y) for x, y in zip(got_pg, pg))
        assert _same(got_psi, psi)

    # Entries whose sums overflow, round or vanish: huge pairs, the smallest
    # subnormal and both zeros, beside any float.
    @settings(max_examples=500, deadline=None)
    @given(arrays(np.float64, st.integers(1, 7), elements=ANY_ENTRIES | st.sampled_from(
        (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan))))
    @example(np.array([1.0, math.nan]))  # a NaN after a finite entry, which max drops
    @example(np.array([1e308, -1e308, 5e-324]))
    def test_norms_have_numpys_bits_below_8_entries(self, v):
        with np.errstate(all="ignore"):
            l1, linf = np.add.reduce(np.abs(v)), np.maximum.reduce(np.abs(v))
        assert type(_l1(v)) is float and type(_linf(v)) is float
        assert _same(_l1(v), l1)
        assert _same(_linf(v), linf)

    def test_l1_of_8_entries_is_a_left_fold(self):
        # Each 2**-53 added to 1.0 rounds back to 1.0; numpy sums 8 entries
        # pairwise, adding 2**-53 to 2**-53 first.
        v = np.array([1.0] + [2.0**-53] * 7)
        assert _l1(v) == 1.0
        assert np.add.reduce(v) == 1.0 + 3 * 2.0**-52


def _poisoned(name, quantity, value, after):
    """Problem `name` whose `quantity` callback returns `value` in its first
    entry from call `after` + 1 on."""
    p = get_problem(name)
    clean = getattr(p, f"eval_{quantity}")
    calls = 0

    def poisoned(x):
        nonlocal calls
        calls += 1
        out = clean(x)
        if calls <= after:
            return out
        if quantity == "f":
            return value
        out = np.array(out, dtype=float)
        out.flat[0] = value
        return out

    return replace(p, **{f"eval_{quantity}": poisoned})


class TestNonFiniteOracleValues:
    """A NaN or an infinity from any oracle output ends the run as NONFINITE."""

    SPEC = NoiseSpec(1e-3, 1e-3, seed=5)

    def _config(self, p):
        return SolverConfig(max_iters=60, termination_enabled=False).with_estimates(
            self.SPEC.bounds(p.n, p.m))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("quantity", ["f", "c", "g", "J"])
    @pytest.mark.parametrize("after", [10, 25])
    def test_status_and_partial_trace(self, quantity, value, after):
        p = get_problem("BT11")
        x_ref = reference_solution("BT11").x_star
        clean = solve(p, self.SPEC, self._config(p), x_ref=x_ref)
        result = solve(_poisoned("BT11", quantity, value, after), self.SPEC, self._config(p),
                       x_ref=x_ref)
        assert result.status is Status.NONFINITE
        assert result.failure_iter is None
        rows = result.trace
        assert 2 <= len(rows) < len(clean.trace)
        assert [r.k for r in rows] == list(range(len(rows)))
        # Every row before the poisoned iteration is the clean run's row.
        assert [_row_bits(r) for r in rows[:-1]] == [
            _row_bits(r) for r in clean.trace[:len(rows) - 1]]
        last = rows[-1]
        assert math.isnan(last.alpha) and math.isnan(last.merit_trial)
        assert last.x.tobytes() == clean.trace[len(rows) - 1].x.tobytes()
        assert result.x.tobytes() == last.x.tobytes()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("quantity", ["f", "c", "g", "J"])
    def test_collect_psi_run_ends_without_raising(self, quantity, value):
        # psi reads the exact oracles, so the poison reaches them too.
        p = _poisoned("HS40", quantity, value, 15)
        cfg = SolverConfig(max_iters=60, termination_enabled=False).with_estimates(
            self.SPEC.bounds(p.n, p.m))
        result = solve(p, self.SPEC, cfg, x_ref=reference_solution("HS40").x_star,
                       collect_psi=True)
        assert result.status is Status.NONFINITE
        assert 1 <= len(result.trace) < 60
        assert np.all(np.isfinite(result.x))

    def test_a_nan_multiplier_entry_makes_the_penalty_nan(self):
        # An infinite second gradient entry gives BT11 the multiplier
        # [inf, nan, nan] at x_start.  Its l-inf norm is NaN, so pi and the
        # merit are NaN; a max that dropped the NaNs would record inf for both.
        p = get_problem("BT11")
        clean = p.eval_g

        def eval_g(x):
            g = np.array(clean(x), dtype=float)
            g[1] = math.inf
            return g

        p, cfg = replace(p, eval_g=eval_g), SolverConfig(max_iters=5)
        ev = eval_exact(p, p.x_start)
        with np.errstate(all="ignore"):
            step = solve_sqp_step(ev.J, ev.c, ev.g, cfg.beta)
        assert step.lambda_hat[0] == math.inf and np.isnan(step.lambda_hat[1:]).all()
        result = solve(p, NoiseSpec(0.0, 0.0), cfg)
        assert result.status is Status.NONFINITE
        assert len(result.trace) == 1
        assert math.isnan(result.trace[0].pi) and math.isnan(result.trace[0].merit_noisy)

    def test_search_with_only_distant_non_finite_trials_is_a_line_search_failure(self):
        # The gradient points uphill, so no trial decreases the merit; the
        # long trials land where f is NaN, the short ones next to x_k are
        # finite.  The search failed, not the oracle.
        p = Problem(
            "uphill", 2, 1,
            eval_f=lambda x: math.nan if x[0] > 1.5 else float(x[0] ** 2 + x[1] ** 2),
            eval_c=lambda x: np.array([x[0] - x[1]]),
            eval_g=lambda x: -2.0 * x,
            eval_J=lambda x: np.array([[1.0, -1.0]]),
            x_start=np.array([1.0, 1.0]),
        )
        result = solve(p, NoiseSpec(0.0, 0.0, seed=0),
                       SolverConfig(beta=0.5, max_iters=5, relaxation_enabled=False))
        assert result.status is Status.LINE_SEARCH_FAILURE
        assert len(result.trace) == 1 and result.trace[0].line_search_failed


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            # The numeric settings' edge values are rows of test_input_rules.
            {"beta": -1.0},
            {"eps_f_est": -1.0},
            {"max_iters": 0},
            {"max_iters": 2.5},
            {"relaxation_enabled": "no"},
            {"termination_enabled": "no"},
            {"termination_enabled": 0},
            {"beta": "50"},
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

    def test_with_estimates_rejects_bad_multiplier_even_with_zero_bounds(self):
        # Its other edge values are rows of test_input_rules.
        zero = NoiseSpec(0.0, 0.0).bounds(4, 3)
        with pytest.raises(ValueError, match="multiplier must be nonnegative"):
            SolverConfig().with_estimates(zero, -1.0)
