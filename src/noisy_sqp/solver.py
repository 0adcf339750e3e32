"""Noise-tolerant SQP iteration with a relaxed Armijo line search.

Each iteration evaluates the (noisy) oracle once at the current point,
solves the scaled-identity QP subproblem, updates the l1 penalty from
the least-squares multiplier, and backtracks on the noisy merit
function.  The sufficient-decrease test carries an additive margin
eps_R = 2*(eps_f + pi*eps_c) built from the *estimated* noise bounds,
so bounded noise cannot force the backtracking to fail.  Disabling the
relaxation recovers the classical Armijo condition, whose failure under
noise is reported as a terminal status rather than an exception.  So is
a NaN or an infinity from the oracle, which the loop detects from
scalars it already holds: the merit and model at x_k, the rank gate,
and the last trial merit of a failed line search.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .diagnostics import stationarity_psi
from .kernels import NonFiniteJacobianError, SingularJacobianError, solve_sqp_step
from .oracles import Matrix, NoiseSpec, Problem, Vector, eval_noisy

__all__ = [
    "SolverConfig",
    "Status",
    "IterateRecord",
    "SolveResult",
    "merit_value",
    "linear_model",
    "update_penalty",
    "relaxed_line_search",
    "check_termination",
    "solve",
]


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs and the solver's (estimated) knowledge of the noise.

    The estimated bounds eps_*_est are what the algorithm believes about
    the noise; they feed the relaxation margin and the stop test and may
    deliberately differ from the truth in misestimation studies.  When
    the gradient-side estimates are all zero (exact-oracle mode), the
    stop test falls back to the absolute tolerance ``zero_noise_tol``.
    """

    nu: float = 0.1              # Armijo fraction
    tau: float = 0.9             # penalty margin
    beta: float = 50.0           # constant Hessian scaling beta_k
    pi_init: float = 1.0         # initial penalty parameter
    relaxation_enabled: bool = True
    eps_f_est: float = 0.0
    eps_c_est: float = 0.0
    eps_g_est: float = 0.0
    eps_J_est: float = 0.0
    alpha_init: float = 1.0
    max_backtracks: int = 50
    max_iters: int = 1000
    termination_enabled: bool = True
    zero_noise_tol: float = 1e-8

    def __post_init__(self):
        if not 0 < self.nu < 1:
            raise ValueError(f"nu must lie in (0, 1), got {self.nu}")
        if not 0 < self.tau < 1:
            raise ValueError(f"tau must lie in (0, 1), got {self.tau}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.pi_init <= 0:
            raise ValueError(f"pi_init must be positive, got {self.pi_init}")
        if self.alpha_init <= 0:
            raise ValueError(f"alpha_init must be positive, got {self.alpha_init}")
        if min(self.eps_f_est, self.eps_c_est, self.eps_g_est, self.eps_J_est) < 0:
            raise ValueError("estimated noise bounds must be nonnegative")
        if self.max_backtracks < 1 or self.max_iters < 1:
            raise ValueError("max_backtracks and max_iters must be positive")

    def with_estimates(self, bounds, multiplier: float = 1.0) -> "SolverConfig":
        """Copy of this config using `bounds` (times `multiplier`) as estimates."""
        return replace(
            self,
            eps_f_est=bounds.eps_f * multiplier,
            eps_c_est=bounds.eps_c * multiplier,
            eps_g_est=bounds.eps_g * multiplier,
            eps_J_est=bounds.eps_J * multiplier,
        )


class Status(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    LINE_SEARCH_FAILURE = "line_search_failure"
    SINGULAR_JACOBIAN = "singular_jacobian"
    NONFINITE = "nonfinite"


@dataclass
class IterateRecord:
    """One trace row: the state at the start of iteration k plus what happened."""

    k: int
    x: Vector
    alpha: float
    pi: float
    merit_noisy: float
    model_value: float
    dist_to_ref: float
    psi: float
    backtracks: int
    line_search_failed: bool
    merit_trial: float       # accepted trial merit phi(x + alpha*d); nan if no step
    eps_R: float


@dataclass
class SolveResult:
    x: Vector
    trace: list[IterateRecord]
    status: Status

    @property
    def iters_run(self) -> int:
        return len(self.trace)

    @property
    def failure_iter(self) -> Optional[int]:
        if self.status is Status.LINE_SEARCH_FAILURE:
            return self.trace[-1].k
        return None


def merit_value(f_val: float, c_val: Vector, pi: float) -> float:
    """l1 merit: f + pi * ||c||_1."""
    if pi <= 0:
        raise ValueError(f"penalty must be positive, got {pi}")
    return float(f_val + pi * np.abs(c_val).sum())


def linear_model(g: Vector, c: Vector, J: Matrix, d: Vector, pi: float) -> float:
    """First-order model of the merit change along d.

    g'd + pi*||c + Jd||_1 - pi*||c||_1; for steps satisfying the
    linearized constraints the middle term vanishes to solver accuracy.
    """
    c = np.asarray(c, dtype=float)
    return float(np.dot(g, d) + pi * np.abs(c + J @ d).sum() - pi * np.abs(c).sum())


def update_penalty(pi: float, lambda_hat: Vector, tau: float) -> float:
    """Classical penalty update: grow pi when it no longer dominates the multiplier.

    Keeps pi when pi >= ||lambda_hat||_inf / (1 - tau); otherwise jumps
    to twice that threshold so increases are substantial and pi settles
    after finitely many changes.
    """
    if not 0 < tau < 1:
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    lam_inf = float(np.abs(lambda_hat).max()) if len(lambda_hat) else 0.0
    # pi >= lam/(1-tau), rearranged so the boundary case is not lost to
    # the rounding of the division
    if pi >= lam_inf + pi * tau:
        return pi
    return 2.0 * lam_inf / (1.0 - tau)


def relaxed_line_search(
    merit_at: Callable[[float], float],
    merit_0: float,
    model: float,
    nu: float,
    eps_R: float,
    alpha_init: float = 1.0,
    max_backtracks: int = 50,
) -> Optional[tuple[float, int]]:
    """Backtracking search for the relaxed sufficient-decrease condition.

    Tries alpha = alpha_init * 2**-j for j = 0..max_backtracks and
    returns (alpha, j) for the first trial with

        merit_at(alpha) <= merit_0 + nu * alpha * model + eps_R.

    Each trial costs exactly one merit evaluation.  Returns None when
    every trial fails (the classical breakdown when eps_R = 0 and noise
    dominates the predicted decrease).
    """
    alpha = alpha_init
    for j in range(max_backtracks + 1):
        if merit_at(alpha) <= merit_0 + nu * alpha * model + eps_R:
            return alpha, j
        alpha *= 0.5
    return None


def check_termination(
    c: Vector,
    g: Vector,
    J: Matrix,
    lam: Vector,
    eps_c_est: float,
    eps_g_est: float,
    eps_J_est: float,
) -> bool:
    """Noisy stationarity test: stop once the observed errors sit below the noise.

    True iff ||c||_1 <= eps_c_est and
    ||g + J' lam|| <= eps_g_est + ||lam||_inf * eps_J_est.  `lam` is the
    multiplier paired with the ``g + J' lam`` residual convention (the
    solver passes the negated least-squares estimate).
    """
    if float(np.abs(c).sum()) > eps_c_est:
        return False
    r = g + J.T @ lam
    residual = math.sqrt(r.dot(r))  # np.linalg.norm's formula for a 1-D array
    lam_inf = float(np.abs(lam).max()) if len(lam) else 0.0
    return residual <= eps_g_est + lam_inf * eps_J_est


def _effective_stop_bounds(cfg: SolverConfig) -> tuple[float, float, float]:
    """Stop-test bounds, substituting absolute tolerances in exact-oracle mode."""
    eps_c = cfg.eps_c_est if cfg.eps_c_est > 0 else cfg.zero_noise_tol
    if cfg.eps_g_est > 0 or cfg.eps_J_est > 0:
        return eps_c, cfg.eps_g_est, cfg.eps_J_est
    return eps_c, cfg.zero_noise_tol, 0.0


def solve(
    p: Problem,
    spec: NoiseSpec,
    cfg: SolverConfig,
    x_ref: Optional[Vector] = None,
    collect_psi: bool = False,
) -> SolveResult:
    """Run the noise-tolerant SQP iteration from the problem's start point.

    Per iteration: one noisy oracle evaluation at x_k, the closed-form
    QP step, the penalty update, the stop test (when enabled), then the
    relaxed backtracking search, each trial drawing a fresh value-only
    merit evaluation.  The relaxation margin is eps_R = 2*(eps_f_est +
    pi_k*eps_c_est) when enabled, else 0.

    ``x_ref`` (when given) fills the per-iterate distance column of the
    trace; ``collect_psi`` additionally records the exact-oracle
    stationarity measure, at the cost of one exact evaluation per
    iteration (nan where the exact Jacobian fails the rank gate).
    Terminal events (line-search failure, rank-deficient Jacobian, a
    non-finite oracle value) are reported through ``SolveResult.status``
    with the partial trace intact.
    """
    stream = spec.stream()
    x = np.array(p.x_start, dtype=float)
    pi = cfg.pi_init
    trace: list[IterateRecord] = []
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
            try:
                psi = stationarity_psi(p.eval_g(x), p.eval_c(x), p.eval_J(x), pi, cfg.tau,
                                       cfg.beta)
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
        ev = eval_noisy(p, x, spec, stream)
        try:
            step = solve_sqp_step(ev.J, ev.c, ev.g, cfg.beta)
        except (SingularJacobianError, NonFiniteJacobianError) as err:
            record(k, math.nan, merit_value(ev.f, ev.c, pi), math.nan, 0, False,
                   math.nan, math.nan)
            singular = isinstance(err, SingularJacobianError)
            status = Status.SINGULAR_JACOBIAN if singular else Status.NONFINITE
            break

        pi = update_penalty(pi, step.lambda_hat, cfg.tau)
        merit0 = merit_value(ev.f, ev.c, pi)
        model = linear_model(ev.g, ev.c, ev.J, step.d, pi)
        # A NaN or infinity in f, c or g (through pi or the step) reaches
        # one of these two.
        if not (math.isfinite(merit0) and math.isfinite(model)):
            record(k, math.nan, merit0, model, 0, False, math.nan, math.nan)
            status = Status.NONFINITE
            break

        if cfg.termination_enabled and check_termination(
            ev.c, ev.g, ev.J, -step.lambda_hat, eps_c_stop, eps_g_stop, eps_J_stop
        ):
            record(k, math.nan, merit0, model, 0, False, math.nan, math.nan)
            status = Status.CONVERGED
            break

        eps_r = 2.0 * (cfg.eps_f_est + pi * cfg.eps_c_est) if cfg.relaxation_enabled else 0.0

        last_trial = math.nan

        def merit_at(alpha: float) -> float:
            nonlocal last_trial
            ev_t = eval_noisy(p, x + alpha * step.d, spec, stream, derivatives=False)
            last_trial = merit_value(ev_t.f, ev_t.c, pi)
            return last_trial

        found = relaxed_line_search(
            merit_at, merit0, model, cfg.nu, eps_r, cfg.alpha_init, cfg.max_backtracks
        )
        if found is None:
            record(k, math.nan, merit0, model, cfg.max_backtracks, True, math.nan, eps_r)
            # The last trial lies next to x_k, whose merit is finite: a
            # non-finite value there means the oracle broke, not the search.
            if math.isfinite(last_trial):
                status = Status.LINE_SEARCH_FAILURE
            else:
                status = Status.NONFINITE
            break

        alpha, backtracks = found
        record(k, alpha, merit0, model, backtracks, False, last_trial, eps_r)
        x = x + alpha * step.d

    return SolveResult(x=x, trace=trace, status=status)
