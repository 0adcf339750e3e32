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
from typing import Callable, ClassVar, Optional

import numpy as np

from .diagnostics import stationarity_psi
from .kernels import NonFiniteJacobianError, SingularJacobianError, solve_sqp_step
from .oracles import (Matrix, NoiseSpec, NoiseStream, Problem, Vector, _check_point, _integer,
                      _l1, _linf, _real, eval_noisy)

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
    The Armijo fraction ``nu``, the penalty margin ``tau``, the initial
    penalty ``pi_init``, the backtracking cap ``max_backtracks`` and
    ``zero_noise_tol`` are class constants, not fields; the iteration
    helpers read them from this class rather than take them as arguments.
    """

    beta: float = 50.0           # constant Hessian scaling beta_k
    relaxation_enabled: bool = True
    eps_f_est: float = 0.0
    eps_c_est: float = 0.0
    eps_g_est: float = 0.0
    eps_J_est: float = 0.0
    max_iters: int = 1000
    nu: ClassVar[float] = 0.1           # Armijo fraction
    tau: ClassVar[float] = 0.9          # penalty margin
    pi_init: ClassVar[float] = 1.0      # initial penalty parameter
    max_backtracks: ClassVar[int] = 50  # line-search halvings from alpha = 1
    zero_noise_tol: ClassVar[float] = 1e-8  # stop-test tolerance in exact-oracle mode
    termination_enabled: bool = True

    def __post_init__(self):
        object.__setattr__(self, "beta", _real(self.beta, "beta", positive=True))
        for name in ("eps_f_est", "eps_c_est", "eps_g_est", "eps_J_est"):
            object.__setattr__(self, name, _real(getattr(self, name), "estimated noise bounds"))
        object.__setattr__(self, "max_iters", _integer(self.max_iters, "max_iters", positive=True))
        for name in ("relaxation_enabled", "termination_enabled"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be true or false, got {getattr(self, name)!r}")

    def with_estimates(self, bounds, multiplier: float = 1.0) -> "SolverConfig":
        """Copy of this config using `bounds` (times a finite `multiplier` >= 0) as estimates."""
        # Checked here, as -1 * 0 would pass the config's check as -0.0.
        multiplier = _real(multiplier, "estimate multiplier")
        return replace(
            self,
            eps_f_est=bounds.eps_f * multiplier,
            eps_c_est=bounds.eps_c * multiplier,
            eps_g_est=bounds.eps_g * multiplier,
            eps_J_est=bounds.eps_J * multiplier,
        )


class Status(enum.Enum):
    """How a run ended: the value, the tables' ``kind`` column and the CLI's ``exit_code``."""

    CONVERGED = "converged", "opt", 0
    MAX_ITERS = "max_iters", "max_iters", 0
    LINE_SEARCH_FAILURE = "line_search_failure", "ls", 2
    SINGULAR_JACOBIAN = "singular_jacobian", "singular", 3
    NONFINITE = "nonfinite", "nonfinite", 4

    def __new__(cls, value: str, kind: str, exit_code: int):
        member = object.__new__(cls)
        member._value_ = value
        member.kind = kind
        member.exit_code = exit_code
        return member


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


def merit_value(f_val: float, c_l1: float, pi: float) -> float:
    """l1 merit f + pi * ||c||_1, given c_l1 = ||c||_1."""
    if not pi > 0:
        raise ValueError(f"penalty must be positive, got {pi}")
    return float(f_val + pi * c_l1)


def linear_model(g: Vector, c: Vector, J: Matrix, d: Vector, pi: float, c_l1: float) -> float:
    """First-order model of the merit change along d, given c_l1 = ||c||_1.

    g'd + pi*||c + Jd||_1 - pi*||c||_1 for float arrays g, c, J and d;
    for steps satisfying the linearized constraints the middle term
    vanishes to solver accuracy.  ||c + Jd||_1 is summed in numpy's order
    below 8 constraints and as a left fold from 8 on.
    """
    # J comes from the oracle in any layout and, called on its own, with any
    # values, so it keeps @: ndarray.dot would multiply a strided J through a
    # copy, off by round-off, and where J's inner dimension is 1 dgemv skips a
    # zero entry of d that @ multiplies, so 0 * inf would read 0, not NaN.
    return float(g.dot(d) + pi * _l1(c + J @ d) - pi * c_l1)


def update_penalty(pi: float, lam_inf: float) -> float:
    """Classical penalty update: grow pi when it no longer dominates the multiplier.

    ``lam_inf`` is ||lambda_hat||_inf.  Keeps pi when
    pi >= lam_inf / (1 - tau), with tau = ``SolverConfig.tau``; otherwise
    jumps to twice that threshold so increases are substantial and pi
    settles after finitely many changes.
    """
    # pi >= lam/(1-tau), rearranged so the boundary case is not lost to
    # the rounding of the division
    if pi >= lam_inf + pi * SolverConfig.tau:
        return pi
    return 2.0 * lam_inf / (1.0 - SolverConfig.tau)


def relaxed_line_search(
    merit_at: Callable[[float], float], merit_0: float, model: float, eps_R: float
) -> Optional[tuple[float, int]]:
    """Backtracking search for the relaxed sufficient-decrease condition.

    Tries alpha = 2**-j for j = 0..``SolverConfig.max_backtracks`` and
    returns (alpha, j) for the first trial with

        merit_at(alpha) <= merit_0 + nu * alpha * model + eps_R,

    nu being ``SolverConfig.nu``.  Each trial costs exactly one merit
    evaluation.  Returns None when every trial fails (the classical
    breakdown when eps_R = 0 and noise dominates the predicted decrease).
    """
    nu = SolverConfig.nu
    alpha = 1.0
    for j in range(SolverConfig.max_backtracks + 1):
        if merit_at(alpha) <= merit_0 + nu * alpha * model + eps_R:
            return alpha, j
        alpha *= 0.5
    return None


def check_termination(
    c_l1: float,
    g: Vector,
    J: Matrix,
    lambda_hat: Vector,
    lam_inf: float,
    eps_c_est: float,
    eps_g_est: float,
    eps_J_est: float,
) -> bool:
    """Noisy stationarity test: stop once the observed errors sit below the noise.

    True iff ||c||_1 <= eps_c_est and
    ||g - J' lam|| <= eps_g_est + ||lam||_inf * eps_J_est, with ``lam``
    the least-squares multiplier estimate ``lambda_hat``.  ``c_l1`` is
    ||c||_1 and ``lam_inf`` is ||lambda_hat||_inf.
    """
    if c_l1 > eps_c_est:
        return False
    r = g - J.T @ lambda_hat  # @, not .dot, for the reasons given in linear_model
    residual = math.sqrt(r.dot(r))  # np.linalg.norm's formula for a 1-D array
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

    ``x_ref`` (when given, of shape (n,)) fills the per-iterate distance column of the
    trace; ``collect_psi`` additionally records the exact-oracle
    stationarity measure (nan where the exact Jacobian fails the rank
    gate).  It reads the exact g, c and J that the noisy evaluation at
    x_k already computed, so it calls no problem callback; its cost is
    the measure's projection.

    Each iteration writes one trace row.  The step (a rank-deficient or
    non-finite Jacobian), the finiteness check on the merit and model,
    the stop test and the line search may each end the run: the first
    that does sets ``SolveResult.status``, and its row, with a NaN
    ``alpha``, ends the partial trace.  Otherwise the run stops at
    ``max_iters``.
    """
    if x_ref is not None:
        x_ref = _check_point(p, x_ref)
    stream = NoiseStream(spec)
    x = trial_x = np.array(p.x_start, dtype=float)
    pi = cfg.pi_init
    trace: list[IterateRecord] = []
    end: Optional[Status] = None
    eps_c_stop, eps_g_stop, eps_J_stop = _effective_stop_bounds(cfg)
    last_trial = math.nan

    def merit_at(alpha: float) -> float:
        """Noisy merit at x_k + alpha*d_k; keeps the point and the merit."""
        nonlocal trial_x, last_trial
        trial_x = x + alpha * step.d
        ev_t = eval_noisy(p, trial_x, stream, derivatives=False)
        last_trial = merit_value(ev_t.f, _l1(ev_t.c), pi)
        return last_trial

    # A NaN or infinity from the oracle makes numpy warn in the step kernel and
    # the merit; the run reports it through its status instead.
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for k in range(cfg.max_iters):
            ev = eval_noisy(p, x, stream)
            c_l1 = _l1(ev.c)
            alpha = model = merit_trial = eps_r = math.nan
            backtracks, failed = 0, False
            try:
                step = solve_sqp_step(ev.J, ev.c, ev.g, cfg.beta)
            except (SingularJacobianError, NonFiniteJacobianError) as err:
                merit0 = merit_value(ev.f, c_l1, pi)
                singular = isinstance(err, SingularJacobianError)
                end = Status.SINGULAR_JACOBIAN if singular else Status.NONFINITE
            else:
                lam_inf = _linf(step.lambda_hat)
                pi = update_penalty(pi, lam_inf)
                # A NaN or infinity in f, c or g (through pi or the step) reaches one
                # of these two; a NaN pi, which merit_value rejects, is a NaN merit.
                merit0 = merit_value(ev.f, c_l1, pi) if pi == pi else math.nan
                model = linear_model(ev.g, ev.c, ev.J, step.d, pi, c_l1)
                if not (math.isfinite(merit0) and math.isfinite(model)):
                    end = Status.NONFINITE
                elif cfg.termination_enabled and check_termination(
                    c_l1, ev.g, ev.J, step.lambda_hat, lam_inf, eps_c_stop, eps_g_stop, eps_J_stop
                ):
                    end = Status.CONVERGED
                else:
                    eps_r = (2.0 * (cfg.eps_f_est + pi * cfg.eps_c_est)
                             if cfg.relaxation_enabled else 0.0)
                    found = relaxed_line_search(merit_at, merit0, model, eps_r)
                    if found is not None:
                        alpha, backtracks = found
                        merit_trial = last_trial
                    else:
                        backtracks, failed = cfg.max_backtracks, True
                        # The last trial lies next to x_k, whose merit is finite: a
                        # non-finite value there means the oracle broke, not the search.
                        finite = math.isfinite(last_trial)
                        end = Status.LINE_SEARCH_FAILURE if finite else Status.NONFINITE

            if x_ref is not None:
                r = x - x_ref
                dist = math.sqrt(r.dot(r))
            else:
                dist = math.nan
            psi = math.nan
            if collect_psi:
                exact = ev.exact  # unperturbed g, c and J at x, from this iteration's evaluation
                try:
                    psi = stationarity_psi(exact.g, exact.c, exact.J, pi, cfg.tau, cfg.beta)
                except (SingularJacobianError, NonFiniteJacobianError):
                    pass
            # Positional, in field order: keyword construction costs ~3x as much.
            trace.append(IterateRecord(k, x.copy(), alpha, pi, merit0, model, dist, psi,
                                       backtracks, failed, merit_trial, eps_r))
            if end is not None:
                break
            x = trial_x  # the accepted trial is the last one evaluated

    return SolveResult(x=x, trace=trace, status=end or Status.MAX_ITERS)
