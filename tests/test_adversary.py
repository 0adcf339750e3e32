"""Relaxed search under worst-case bounded value noise, not only uniform draws.

The adversary of ``helpers.adversarial_eval_noisy`` lowers the merit read
at x_k and raises it at every trial point by the same amount, so a trial
passes the relaxed test only if the margin eps_R = 2*(eps_f + pi*eps_c)
covers the spread.  Below the full bound (``frac < 1``) it always does.
At ``frac = 1`` the spread equals eps_R exactly: with exact derivatives
no run fails, but with noisy ones some do (9 of the 36 runs of this grid:
HS7 at 1e-5 and 1e-1, BT11 at 1e-5 seed 1), and that boundary is not
asserted.
"""

import pytest

from helpers import adversarial_eval_noisy
from noisy_sqp import PROBLEM_NAMES, NoiseSpec, SolverConfig, Status, get_problem, solve
from noisy_sqp import solver

EPS_LEVELS = (1e-5, 1e-3, 1e-1)
SEEDS = range(4)


def _line_search_failures(monkeypatch, frac, relaxed, derivative_noise=True):
    """Runs of the 3 x 3 x 4 grid, 300 iterations each, that end in a failed search."""
    monkeypatch.setattr(solver, "eval_noisy", adversarial_eval_noisy(solver.eval_noisy, frac))
    failures = []
    for name in PROBLEM_NAMES:
        p = get_problem(name)
        for eps in EPS_LEVELS:
            for seed in SEEDS:
                spec = NoiseSpec(eps, eps if derivative_noise else 0.0, seed=seed)
                cfg = SolverConfig(max_iters=300, termination_enabled=False,
                                   relaxation_enabled=relaxed)
                result = solve(p, spec, cfg.with_estimates(spec.bounds(p.n, p.m)))
                if result.status is Status.LINE_SEARCH_FAILURE:
                    failures.append((name, eps, seed))
    return failures


@pytest.mark.parametrize("frac", [0.9, 0.99])
def test_relaxed_search_never_fails_below_the_bound(frac, monkeypatch):
    assert _line_search_failures(monkeypatch, frac, relaxed=True) == []


def test_relaxed_search_never_fails_at_the_bound_with_exact_derivatives(monkeypatch):
    assert _line_search_failures(monkeypatch, 1.0, relaxed=True, derivative_noise=False) == []


def test_classical_search_fails_against_the_adversary(monkeypatch):
    failures = _line_search_failures(monkeypatch, 0.99, relaxed=False)
    assert len(failures) == len(PROBLEM_NAMES) * len(EPS_LEVELS) * len(SEEDS)
