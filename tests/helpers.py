"""Independent oracles shared across the test modules.

These deliberately avoid the library's own code paths: the dense
stationarity-system solve checks the closed-form step, the explicit
projector checks the factored projection, and the KKT residual
||g + J' lam|| checks the least-squares multiplier.  numpy's
per-evaluation SeedSequence generator, the numpy-wrapper merit helpers
and numpy's SVD rank gate are the straightforward forms of the library's
noise stream, iteration helpers and rank gate; the library must match
them bit for bit (the gate: decision for decision).  The numpy-scalar
problem callbacks are the library's earlier form.

``uniform_reference_eval`` is the noise contract itself: evaluation i of
seed s adds what ``Generator.uniform`` draws from ``SeedSequence((s, i))``,
one call per quantity.  ``reference_solve`` is the one reference for whole
runs: the solver's iteration on those evaluations and the merit helper
forms.  It shares only the step kernel, psi and the line search with the
library and reads nothing of its noise path (no ``eval_noisy``, noise
stream, draw cache or noise map).  The experiment grids at the end are the
session fixtures' runs.
"""

import itertools
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from noisy_sqp import ExperimentPlan, oracles
from noisy_sqp.diagnostics import stationarity_psi
from noisy_sqp.harness import _grid_runs, _misestimation_modes, _relaxation_modes
from noisy_sqp.kernels import NonFiniteJacobianError, SingularJacobianError, solve_sqp_step
from noisy_sqp.solver import (
    IterateRecord,
    SolveResult,
    Status,
    _effective_stop_bounds,
    relaxed_line_search,
)


def dense_kkt_step(J, c, g, beta):
    """Solve the QP optimality system as one dense (n+m) x (n+m) solve.

    The subproblem min 0.5*beta*||d||^2 + g'd s.t. c + J d = 0 has the
    stationarity system [[beta*I, J'], [J, 0]] (d, y) = (-g, -c).
    """
    m, n = J.shape
    K = np.zeros((n + m, n + m))
    K[:n, :n] = beta * np.eye(n)
    K[:n, n:] = J.T
    K[n:, :n] = J
    rhs = np.concatenate([-g, -c])
    return np.linalg.solve(K, rhs)[:n]


def kkt_residual(g, J, lam):
    """First-order optimality defect ||g + J' lam|| of multiplier lam."""
    return float(np.linalg.norm(np.asarray(g, float) + np.asarray(J, float).T @ lam))


def explicit_projector(J):
    """Form P = I - J'(JJ')^{-1}J densely (small sizes only)."""
    n = J.shape[1]
    return np.eye(n) - J.T @ np.linalg.inv(J @ J.T) @ J


def random_full_rank(rng, n_max=6, sigma_floor=1e-2):
    """Random (J, c, g) with m < n <= n_max and a well-separated smallest singular value."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(1, n))
    while True:
        J = rng.normal(size=(m, n))
        if np.linalg.svd(J, compute_uv=False)[-1] > sigma_floor:
            break
    return J, rng.normal(size=m), rng.normal(size=n)


def seed_sequence_rng(seed, counter):
    """numpy's own generator for evaluation ``counter`` of noise seed ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, counter)))


def uniform_reference_eval(p, x, spec, counter, derivatives=True):
    """Evaluation ``counter`` of ``spec``'s noise contract, drawn by numpy itself.

    The problem's callbacks give the exact values, and each quantity in the
    order f, c, g, J adds one ``Generator.uniform(-eps, eps)`` call of
    ``seed_sequence_rng(spec.seed, counter)``; a zero half-width draws
    nothing.  Returns (f, c, g, J), or only (f, c) without ``derivatives``,
    as a line-search trial evaluates, and then calls no derivative callback.
    """
    rng = seed_sequence_rng(spec.seed, counter)
    f, c = p.eval_fc(x)
    f, c = float(f), np.asarray(c, dtype=float)
    if spec.eps1 > 0:
        f = f + rng.uniform(-spec.eps1, spec.eps1)
        c = c + rng.uniform(-spec.eps1, spec.eps1, size=p.m)
    if not derivatives:
        return f, c
    g, J = p.eval_gJ(x)
    g, J = np.asarray(g, dtype=float), np.asarray(J, dtype=float)
    if spec.eps2 > 0:
        g = g + rng.uniform(-spec.eps2, spec.eps2, size=p.n)
        J = J + rng.uniform(-spec.eps2, spec.eps2, size=(p.m, p.n))
    return f, c, g, J


def merit_value_reference(f_val, c_val, pi):
    """f + pi*||c||_1 through np.sum."""
    return float(f_val + pi * np.sum(np.abs(c_val)))


def linear_model_reference(g, c, J, d, pi):
    """g'd + pi*||c + Jd||_1 - pi*||c||_1 through np.sum."""
    c = np.asarray(c, dtype=float)
    return float(np.dot(g, d) + pi * np.sum(np.abs(c + J @ d)) - pi * np.sum(np.abs(c)))


def update_penalty_reference(pi, lambda_hat, tau):
    """The penalty update with ||lambda_hat||_inf through np.max."""
    lam_inf = float(np.max(np.abs(lambda_hat))) if len(lambda_hat) else 0.0
    if pi >= lam_inf + pi * tau:
        return pi
    return 2.0 * lam_inf / (1.0 - tau)


def check_termination_reference(c, g, J, lam, eps_c_est, eps_g_est, eps_J_est):
    """The noisy stop test through np.sum, np.linalg.norm and np.max."""
    if float(np.sum(np.abs(c))) > eps_c_est:
        return False
    residual = float(np.linalg.norm(g + J.T @ lam))
    lam_inf = float(np.max(np.abs(lam))) if len(lam) else 0.0
    return residual <= eps_g_est + lam_inf * eps_J_est


def reference_solve(p, spec, cfg, x_ref=None, collect_psi=False):
    """The iteration of ``solver.solve`` written from the noise contract and
    the helper forms above.

    Evaluation i of the run, iterates and line-search trials in call order,
    is ``uniform_reference_eval`` at counter i, so no draw passes through
    the library's noise path.  psi comes from a fresh exact evaluation at
    x_k, and x_{k+1} is recomputed as x_k + alpha_k d_k.  Each merit helper
    recomputes the norms it needs, the stop test takes the negated
    multiplier in its ``g + J' lam`` convention, and the merit has no
    positivity guard.  The step kernel, psi and the line search are the
    library's.
    """
    counters = itertools.count()
    x = np.array(p.x_start, dtype=float)
    pi = cfg.pi_init
    trace = []
    status = Status.MAX_ITERS
    eps_c_stop, eps_g_stop, eps_J_stop = _effective_stop_bounds(cfg)

    def record(k, merit0, model=math.nan, alpha=math.nan, backtracks=0, failed=False,
               merit_trial=math.nan, eps_r=math.nan):
        dist = math.sqrt((x - x_ref).dot(x - x_ref)) if x_ref is not None else math.nan
        psi = math.nan
        if collect_psi:
            (_, c_x), (g_x, J_x) = p.eval_fc(x), p.eval_gJ(x)
            try:
                psi = stationarity_psi(g_x, c_x, J_x, pi, cfg.tau, cfg.beta)
            except (SingularJacobianError, NonFiniteJacobianError):
                pass
        trace.append(
            IterateRecord(
                k=k, x=x.copy(), alpha=alpha, pi=pi, merit_noisy=merit0,
                model_value=model, dist_to_ref=dist, psi=psi,
                backtracks=backtracks, line_search_failed=failed,
                merit_trial=merit_trial, eps_R=eps_r,
            )
        )

    for k in range(cfg.max_iters):
        f, c, g, J = uniform_reference_eval(p, x, spec, next(counters))
        try:
            step = solve_sqp_step(J, c, g, cfg.beta)
        except (SingularJacobianError, NonFiniteJacobianError) as err:
            record(k, merit_value_reference(f, c, pi))
            singular = isinstance(err, SingularJacobianError)
            status = Status.SINGULAR_JACOBIAN if singular else Status.NONFINITE
            break

        pi = update_penalty_reference(pi, step.lambda_hat, cfg.tau)
        merit0 = merit_value_reference(f, c, pi)
        model = linear_model_reference(g, c, J, step.d, pi)
        if not (math.isfinite(merit0) and math.isfinite(model)):
            record(k, merit0, model)
            status = Status.NONFINITE
            break

        if cfg.termination_enabled and check_termination_reference(
            c, g, J, -step.lambda_hat, eps_c_stop, eps_g_stop, eps_J_stop
        ):
            record(k, merit0, model)
            status = Status.CONVERGED
            break

        eps_r = 2.0 * (cfg.eps_f_est + pi * cfg.eps_c_est) if cfg.relaxation_enabled else 0.0
        trials = []

        def merit_at(alpha):
            f_t, c_t = uniform_reference_eval(p, x + alpha * step.d, spec, next(counters),
                                              derivatives=False)
            trials.append(merit_value_reference(f_t, c_t, pi))
            return trials[-1]

        found = relaxed_line_search(merit_at, merit0, model, eps_r)
        if found is None:
            record(k, merit0, model, backtracks=cfg.max_backtracks, failed=True, eps_r=eps_r)
            status = Status.LINE_SEARCH_FAILURE if math.isfinite(trials[-1]) else Status.NONFINITE
            break

        alpha, backtracks = found
        record(k, merit0, model, alpha, backtracks, merit_trial=trials[-1], eps_r=eps_r)
        x = x + alpha * step.d

    return SolveResult(x=x, trace=trace, status=status)


def svd_gate_passes(J, rank_tol=1e-10):
    """numpy's SVD rank gate: False when sigma_min <= rank_tol * sigma_max."""
    s = np.linalg.svd(J, compute_uv=False)
    return not s[-1] <= rank_tol * s[0]


def adversarial_eval_noisy(eval_noisy, frac):
    """eval_noisy with f and c pushed by e = frac * eps1 against the line search.

    Full evaluations (the iterate x_k) read ``f - e`` and ``c - e*sign(c)``,
    value-only ones (the line-search trials) read ``f + e`` and
    ``c + e*sign(c)``, all from the drawn evaluation's ``exact`` values,
    which the result keeps: the worst case of noise bounded by ``eps1``
    when ``frac = 1``.  ``eval_noisy``, the function
    replaced, still runs, so the stream advances as before and g and J keep
    their uniform noise.  Apply with ``monkeypatch.setattr(solver,
    "eval_noisy", adversarial_eval_noisy(solver.eval_noisy, frac))``.
    """
    def adversary(p, x, stream, derivatives=True):
        drawn = eval_noisy(p, x, stream, derivatives)
        exact = drawn.exact
        e = frac * stream.spec.eps1 if not derivatives else -frac * stream.spec.eps1
        return oracles.NoisyEval(f=exact.f + e, c=exact.c + e * np.sign(exact.c),
                                 g=drawn.g, J=drawn.J, exact=exact)
    return adversary


# The problem callbacks as they were written on numpy scalars (x[i]), as
# (eval_fc, eval_gJ) pairs; the library's Python-float callbacks must equal
# them bit for bit.
_SQRT18, _SQRT8 = math.sqrt(18.0), math.sqrt(8.0)

NUMPY_SCALAR_CALLBACKS = {
    "HS7": (
        lambda x: (math.log1p(x[0] ** 2) - x[1],
                   np.array([(1.0 + x[0] ** 2) ** 2 + x[1] ** 2 - 4.0])),
        lambda x: (np.array([2.0 * x[0] / (1.0 + x[0] ** 2), -1.0]),
                   np.array([[4.0 * x[0] * (1.0 + x[0] ** 2), 2.0 * x[1]]])),
    ),
    "BT11": (
        lambda x: (-x[0] * x[1] * x[2] * x[3],
                   np.array([x[0] ** 3 + x[1] ** 2 - 1.0, x[0] ** 2 * x[3] - x[2],
                             x[3] ** 2 - x[1]])),
        lambda x: (np.array([-x[1] * x[2] * x[3], -x[0] * x[2] * x[3],
                             -x[0] * x[1] * x[3], -x[0] * x[1] * x[2]]),
                   np.array([[3.0 * x[0] ** 2, 2.0 * x[1], 0.0, 0.0],
                             [2.0 * x[0] * x[3], 0.0, -1.0, x[0] ** 2],
                             [0.0, -1.0, 0.0, 2.0 * x[3]]])),
    ),
    "HS40": (
        lambda x: ((x[0] - 1.0) ** 2 + (x[0] - x[1]) ** 2 + (x[1] - x[2]) ** 2
                   + (x[2] - x[3]) ** 4 + (x[3] - x[4]) ** 4,
                   np.array([x[0] + x[1] ** 2 + x[2] ** 3 + 2.0 - _SQRT18,
                             x[1] + x[3] + x[2] ** 2 + 2.0 - _SQRT8,
                             x[0] - x[4] - 2.0])),
        lambda x: (np.array([
                       2.0 * (x[0] - 1.0) + 2.0 * (x[0] - x[1]),
                       -2.0 * (x[0] - x[1]) + 2.0 * (x[1] - x[2]),
                       -2.0 * (x[1] - x[2]) + 4.0 * (x[2] - x[3]) ** 3,
                       -4.0 * (x[2] - x[3]) ** 3 + 4.0 * (x[3] - x[4]) ** 3,
                       -4.0 * (x[3] - x[4]) ** 3,
                   ]),
                   np.array([[1.0, 2.0 * x[1], 3.0 * x[2] ** 2, 0.0, 0.0],
                             [0.0, 1.0, 2.0 * x[2], 1.0, 0.0],
                             [1.0, 0.0, 0.0, 0.0, -1.0]])),
    ),
}


# The experiment grids behind the session fixtures of conftest.py and the
# golden manifest (golden.py): the harness's own runs on ExperimentPlan's
# default problems, levels and seeds.
PLAN = ExperimentPlan()


@dataclass
class GridEntry:
    enabled: SolveResult
    disabled: SolveResult
    enabled_dists: np.ndarray   # per-iterate distances plus the final point
    disabled_dists: np.ndarray


def relaxation_grid():
    """The relaxation table's runs at k_max = 1000, keyed (problem, eps, seed), and
    their wall time per level."""
    runs, timings = {}, {}
    for level in PLAN.eps_levels:
        t0 = time.perf_counter()
        cells = iter(_grid_runs(replace(PLAN, eps_levels=(level,), k_max_values=(1000,)),
                                _relaxation_modes))
        # Each seed's classical run comes just before its relaxed one.
        for (name, spec, _, _, disabled, d_off), (*_, enabled, d_on) in zip(cells, cells):
            runs[(name, spec.eps1, spec.seed)] = GridEntry(enabled, disabled, d_on, d_off)
        timings[level[0]] = time.perf_counter() - t0
    return {"runs": runs, "timings": timings}


def misestimation_grid():
    """The misestimation study's runs at the smallest level, keyed (problem, seed, multiplier)."""
    plan = replace(PLAN, eps_levels=(min(PLAN.eps_levels),))
    return {(name, spec.seed, mult): (result, dists)
            for name, spec, mult, _, result, dists in _grid_runs(plan, _misestimation_modes)}
