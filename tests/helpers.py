"""Independent oracles shared across the test modules.

These deliberately avoid the library's own code paths: the dense
stationarity-system solve checks the closed-form step, the explicit
projector checks the factored projection, and the KKT residual
||g + J' lam|| checks the least-squares multiplier.  The per-quantity noise
draws, numpy's per-evaluation SeedSequence generator, the numpy-wrapper
merit helpers and numpy's SVD rank gate are the straightforward forms of
the library's noise model, noise stream, iteration helpers and rank
gate; the library must match them bit for bit (the gate: decision for
decision).  The two-step noise map and the numpy-scalar problem
callbacks are the library's earlier forms.  The two-step noise map
draws through the stream's ``next_rng``; the other forms above never
read the library's shared draw cache.  ``reference_solve`` is the
solver's iteration as it was written on the merit helper forms, around
the library's oracle (draw cache included), step kernel, psi and line
search.
"""

import math

import numpy as np

from noisy_sqp import oracles
from noisy_sqp.diagnostics import stationarity_psi
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


def per_evaluation_draws(stream, k):
    """The stream's next k uniforms from numpy's own SeedSequence generator.

    Advances the counter by one, as :meth:`NoiseStream.next_rng` does.
    """
    u = seed_sequence_rng(stream.spec.seed, stream.counter).random(k)
    stream.counter += 1
    return u


def two_step_eval_noisy(p, x, stream, derivatives=True):
    """eval_noisy with each noise group mapped by a scalar -eps + (eps - -eps) * u."""
    exact = oracles.eval_exact(p, x, derivatives)
    f, c, g, J = exact.f, exact.c, exact.g, exact.J
    e1, e2 = stream.spec.eps1, stream.spec.eps2
    k1 = 1 + p.m if e1 > 0 else 0
    k2 = p.n * (1 + p.m) if e2 > 0 and derivatives else 0
    u = stream.next_rng(k1 + k2)
    if k1:
        w = -e1 + (e1 - -e1) * u[:k1]
        f = f + w[0]
        c = c + w[1:]
    if k2:
        w = -e2 + (e2 - -e2) * u[k1:]
        g = g + w[:p.n]
        J = J + w[p.n:].reshape(p.m, p.n)
    return oracles.NoisyEval(f=float(f), c=c, g=g, J=J, exact=exact)


def uniform_reference_eval(p, x, stream):
    """Noisy (f, c, g, J) drawn with one Generator.uniform call per quantity.

    The generator comes from numpy's SeedSequence path at the stream's
    (seed, counter), not from the stream itself; the counter is advanced
    by one as an evaluation would.
    """
    spec = stream.spec
    rng = seed_sequence_rng(spec.seed, stream.counter)
    stream.counter += 1
    f, c = float(p.eval_f(x)), np.asarray(p.eval_c(x), dtype=float)
    g, J = np.asarray(p.eval_g(x), dtype=float), np.asarray(p.eval_J(x), dtype=float)
    if spec.eps1 > 0:
        f = f + rng.uniform(-spec.eps1, spec.eps1)
        c = c + rng.uniform(-spec.eps1, spec.eps1, size=p.m)
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
    """The iteration of ``solver.solve`` as it was written on the helper forms above.

    Each helper recomputes the norms it needs, the stop test takes the
    negated multiplier in its ``g + J' lam`` convention, and the merit
    has no positivity guard.  The oracle, the step kernel, psi and the
    line search are the library's.
    """
    if x_ref is not None:
        x_ref = oracles._check_point(p, x_ref)
    stream = spec.stream()
    x = np.array(p.x_start, dtype=float)
    pi = cfg.pi_init
    trace = []
    status = Status.MAX_ITERS
    eps_c_stop, eps_g_stop, eps_J_stop = _effective_stop_bounds(cfg)

    def record(k, alpha, merit0, model, backtracks, failed, merit_trial, eps_r):
        if x_ref is not None:
            r = x - x_ref
            dist = math.sqrt(r.dot(r))
        else:
            dist = math.nan
        psi = math.nan
        if collect_psi:
            exact = ev.exact
            try:
                psi = stationarity_psi(exact.g, exact.c, exact.J, pi, cfg.tau, cfg.beta)
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
        ev = oracles.eval_noisy(p, x, stream)
        try:
            step = solve_sqp_step(ev.J, ev.c, ev.g, cfg.beta)
        except (SingularJacobianError, NonFiniteJacobianError) as err:
            record(k, math.nan, merit_value_reference(ev.f, ev.c, pi), math.nan, 0, False,
                   math.nan, math.nan)
            singular = isinstance(err, SingularJacobianError)
            status = Status.SINGULAR_JACOBIAN if singular else Status.NONFINITE
            break

        pi = update_penalty_reference(pi, step.lambda_hat, cfg.tau)
        merit0 = merit_value_reference(ev.f, ev.c, pi)
        model = linear_model_reference(ev.g, ev.c, ev.J, step.d, pi)
        if not (math.isfinite(merit0) and math.isfinite(model)):
            record(k, math.nan, merit0, model, 0, False, math.nan, math.nan)
            status = Status.NONFINITE
            break

        if cfg.termination_enabled and check_termination_reference(
            ev.c, ev.g, ev.J, -step.lambda_hat, eps_c_stop, eps_g_stop, eps_J_stop
        ):
            record(k, math.nan, merit0, model, 0, False, math.nan, math.nan)
            status = Status.CONVERGED
            break

        eps_r = 2.0 * (cfg.eps_f_est + pi * cfg.eps_c_est) if cfg.relaxation_enabled else 0.0

        last_trial, trial_x = math.nan, x

        def merit_at(alpha):
            nonlocal last_trial, trial_x
            trial_x = x + alpha * step.d
            ev_t = oracles.eval_noisy(p, trial_x, stream, derivatives=False)
            last_trial = merit_value_reference(ev_t.f, ev_t.c, pi)
            return last_trial

        found = relaxed_line_search(merit_at, merit0, model, cfg.nu, eps_r, cfg.max_backtracks)
        if found is None:
            record(k, math.nan, merit0, model, cfg.max_backtracks, True, math.nan, eps_r)
            if math.isfinite(last_trial):
                status = Status.LINE_SEARCH_FAILURE
            else:
                status = Status.NONFINITE
            break

        alpha, backtracks = found
        record(k, alpha, merit0, model, backtracks, False, last_trial, eps_r)
        x = trial_x

    return SolveResult(x=x, trace=trace, status=status)


def psi_reference(pg, c, pi, tau, b_u):
    """(1/b_u)*||pg||^2 + pi*tau*||c||_1 through np.sum."""
    return float(np.dot(pg, pg) / b_u + pi * tau * np.sum(np.abs(c)))


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


# The problem callbacks as they were written on numpy scalars (x[i]); the
# library's Python-float callbacks must equal them bit for bit.
_SQRT18, _SQRT8 = math.sqrt(18.0), math.sqrt(8.0)

NUMPY_SCALAR_CALLBACKS = {
    "HS7": (
        lambda x: math.log1p(x[0] ** 2) - x[1],
        lambda x: np.array([(1.0 + x[0] ** 2) ** 2 + x[1] ** 2 - 4.0]),
        lambda x: np.array([2.0 * x[0] / (1.0 + x[0] ** 2), -1.0]),
        lambda x: np.array([[4.0 * x[0] * (1.0 + x[0] ** 2), 2.0 * x[1]]]),
    ),
    "BT11": (
        lambda x: -x[0] * x[1] * x[2] * x[3],
        lambda x: np.array([x[0] ** 3 + x[1] ** 2 - 1.0, x[0] ** 2 * x[3] - x[2],
                            x[3] ** 2 - x[1]]),
        lambda x: np.array([-x[1] * x[2] * x[3], -x[0] * x[2] * x[3],
                            -x[0] * x[1] * x[3], -x[0] * x[1] * x[2]]),
        lambda x: np.array([[3.0 * x[0] ** 2, 2.0 * x[1], 0.0, 0.0],
                            [2.0 * x[0] * x[3], 0.0, -1.0, x[0] ** 2],
                            [0.0, -1.0, 0.0, 2.0 * x[3]]]),
    ),
    "HS40": (
        lambda x: ((x[0] - 1.0) ** 2 + (x[0] - x[1]) ** 2 + (x[1] - x[2]) ** 2
                   + (x[2] - x[3]) ** 4 + (x[3] - x[4]) ** 4),
        lambda x: np.array([x[0] + x[1] ** 2 + x[2] ** 3 + 2.0 - _SQRT18,
                            x[1] + x[3] + x[2] ** 2 + 2.0 - _SQRT8,
                            x[0] - x[4] - 2.0]),
        lambda x: np.array([
            2.0 * (x[0] - 1.0) + 2.0 * (x[0] - x[1]),
            -2.0 * (x[0] - x[1]) + 2.0 * (x[1] - x[2]),
            -2.0 * (x[1] - x[2]) + 4.0 * (x[2] - x[3]) ** 3,
            -4.0 * (x[2] - x[3]) ** 3 + 4.0 * (x[3] - x[4]) ** 3,
            -4.0 * (x[3] - x[4]) ** 3,
        ]),
        lambda x: np.array([[1.0, 2.0 * x[1], 3.0 * x[2] ** 2, 0.0, 0.0],
                            [0.0, 1.0, 2.0 * x[2], 1.0, 0.0],
                            [1.0, 0.0, 0.0, 0.0, -1.0]]),
    ),
}
