"""Three small equality-constrained benchmark problems with analytic derivatives.

The trio (CUTEst naming: HS7, BT11, HS40; classifications OOR2-AN-2-1,
OOR2-AN-4-3, OOR2-AY-5-3) covers a log-nonlinear objective with a single
quartic constraint, a product objective with polynomial constraints, and
a quartic objective with mixed-degree constraints.  Constraints follow
the convention c_i(x) = lhs - rhs = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kernels import least_squares_multiplier, project_tangent
from .oracles import NoiseSpec, Problem, Vector

PROBLEM_NAMES = ("HS7", "BT11", "HS40")

_SQRT18 = math.sqrt(18.0)
_SQRT8 = math.sqrt(8.0)


def _on_floats(body):
    """The callback ``x -> body(*x)``, evaluated on Python floats.

    Python floats take the same IEEE operations and the same C ``pow`` as
    numpy float64 scalars, so the result has the same bits, and they skip
    numpy's per-scalar overhead.  Where Python's ``**`` raises
    OverflowError, numpy returns inf, so that point is evaluated again on
    numpy scalars with floating-point warnings off.
    """
    def callback(x):
        try:
            return body(*x.tolist())
        except OverflowError:
            with np.errstate(all="ignore"):
                return body(*x)
    return callback


def _hs7() -> Problem:
    # min ln(1 + x1^2) - x2   s.t.  (1 + x1^2)^2 + x2^2 = 4
    @_on_floats
    def f(x1, x2):
        return math.log1p(x1 ** 2) - x2

    @_on_floats
    def c(x1, x2):
        return np.array([(1.0 + x1 ** 2) ** 2 + x2 ** 2 - 4.0])

    @_on_floats
    def g(x1, x2):
        return np.array([2.0 * x1 / (1.0 + x1 ** 2), -1.0])

    @_on_floats
    def J(x1, x2):
        return np.array([[4.0 * x1 * (1.0 + x1 ** 2), 2.0 * x2]])

    return Problem("HS7", 2, 1, f, c, g, J, np.array([2.0, 2.0]))


def _bt11() -> Problem:
    # min -x1 x2 x3 x4   s.t.  x1^3 + x2^2 = 1,  x1^2 x4 = x3,  x4^2 = x2
    @_on_floats
    def f(x1, x2, x3, x4):
        return -x1 * x2 * x3 * x4

    @_on_floats
    def c(x1, x2, x3, x4):
        return np.array(
            [
                x1 ** 3 + x2 ** 2 - 1.0,
                x1 ** 2 * x4 - x3,
                x4 ** 2 - x2,
            ]
        )

    @_on_floats
    def g(x1, x2, x3, x4):
        return np.array(
            [
                -x2 * x3 * x4,
                -x1 * x3 * x4,
                -x1 * x2 * x4,
                -x1 * x2 * x3,
            ]
        )

    @_on_floats
    def J(x1, x2, x3, x4):
        return np.array(
            [
                [3.0 * x1 ** 2, 2.0 * x2, 0.0, 0.0],
                [2.0 * x1 * x4, 0.0, -1.0, x1 ** 2],
                [0.0, -1.0, 0.0, 2.0 * x4],
            ]
        )

    return Problem("BT11", 4, 3, f, c, g, J, np.array([2.0, 2.0, 2.0, 2.0]))


def _hs40() -> Problem:
    # min (x1-1)^2 + (x1-x2)^2 + (x2-x3)^2 + (x3-x4)^4 + (x4-x5)^4
    # s.t. x1 + x2^2 + x3^3 = sqrt(18) - 2
    #      x2 + x4 + x3^2   = sqrt(8) - 2
    #      x1 - x5          = 2
    @_on_floats
    def f(x1, x2, x3, x4, x5):
        return (
            (x1 - 1.0) ** 2
            + (x1 - x2) ** 2
            + (x2 - x3) ** 2
            + (x3 - x4) ** 4
            + (x4 - x5) ** 4
        )

    @_on_floats
    def c(x1, x2, x3, x4, x5):
        return np.array(
            [
                x1 + x2 ** 2 + x3 ** 3 + 2.0 - _SQRT18,
                x2 + x4 + x3 ** 2 + 2.0 - _SQRT8,
                x1 - x5 - 2.0,
            ]
        )

    @_on_floats
    def g(x1, x2, x3, x4, x5):
        d34 = (x3 - x4) ** 3
        d45 = (x4 - x5) ** 3
        return np.array(
            [
                2.0 * (x1 - 1.0) + 2.0 * (x1 - x2),
                -2.0 * (x1 - x2) + 2.0 * (x2 - x3),
                -2.0 * (x2 - x3) + 4.0 * d34,
                -4.0 * d34 + 4.0 * d45,
                -4.0 * d45,
            ]
        )

    @_on_floats
    def J(x1, x2, x3, x4, x5):
        return np.array(
            [
                [1.0, 2.0 * x2, 3.0 * x3 ** 2, 0.0, 0.0],
                [0.0, 1.0, 2.0 * x3, 1.0, 0.0],
                [1.0, 0.0, 0.0, 0.0, -1.0],
            ]
        )

    return Problem("HS40", 5, 3, f, c, g, J, np.full(5, 0.8))


_BUILDERS = {"HS7": _hs7, "BT11": _bt11, "HS40": _hs40}


def get_problem(name: str) -> Problem:
    """Look up a benchmark problem by name (HS7, BT11, HS40)."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: {', '.join(PROBLEM_NAMES)}"
        ) from None
    return builder()


def verify_derivatives(p: Problem, x: Vector, h: float = 1e-6) -> float:
    """Max relative disagreement between analytic and central-difference derivatives.

    Compares eval_g against differences of eval_f and each eval_J column
    against differences of eval_c, with step h.  Errors are relative to
    max(1, |analytic entry|).  A NaN disagreement makes the result NaN.
    """
    if not 0 < h < math.inf:  # NaN fails too
        raise ValueError(f"step must be finite and positive, got {h}")
    x = np.asarray(x, dtype=float)
    g = np.asarray(p.eval_g(x), dtype=float)
    J = np.asarray(p.eval_J(x), dtype=float)
    fd_g, fd_J = np.empty(p.n), np.empty((p.m, p.n))
    for j in range(p.n):
        e = np.zeros(p.n)
        e[j] = h
        fd_g[j] = (p.eval_f(x + e) - p.eval_f(x - e)) / (2.0 * h)
        fd_J[:, j] = (np.asarray(p.eval_c(x + e)) - np.asarray(p.eval_c(x - e))) / (2.0 * h)
    err_g = np.abs(fd_g - g) / np.maximum(1.0, np.abs(g))
    err_J = np.abs(fd_J - J) / np.maximum(1.0, np.abs(J))
    # np.maximum, unlike the builtin max, keeps a NaN disagreement.
    return float(np.maximum(err_g.max(), err_J.max()))


@dataclass(frozen=True)
class ReferenceSolution:
    """A derived stationary point used as the distance reference in experiments."""

    x_star: Vector
    f_star: float
    source: str = "derived-zero-noise-run"


def _newton_polish(p: Problem, x: Vector, steps: int = 3, fd_step: float = 1e-6) -> Vector:
    """Refine a near-stationary point by Newton on the first-order system.

    Solves (g + J' lam, c) = 0 in (x, lam).  The Lagrangian curvature
    block is built by central differences of the analytic first
    derivatives, which is plenty for the final digits: the merit-based
    iteration stalls near 1e-8 once merit differences fall below double
    rounding, and two Newton corrections from there reach 1e-12 or
    better.
    """
    n, m = p.n, p.m
    x = np.array(x, dtype=float)
    J = np.asarray(p.eval_J(x), dtype=float)
    g = np.asarray(p.eval_g(x), dtype=float)
    lam = -least_squares_multiplier(J, g)
    for _ in range(steps):
        g = np.asarray(p.eval_g(x), dtype=float)
        J = np.asarray(p.eval_J(x), dtype=float)
        c = np.asarray(p.eval_c(x), dtype=float)
        residual = np.concatenate([g + J.T @ lam, c])
        H = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = fd_step
            hi = np.asarray(p.eval_g(x + e)) + np.asarray(p.eval_J(x + e)).T @ lam
            lo = np.asarray(p.eval_g(x - e)) + np.asarray(p.eval_J(x - e)).T @ lam
            H[:, j] = (hi - lo) / (2.0 * fd_step)
        system = np.block([[H, J.T], [J, np.zeros((m, m))]])
        delta = np.linalg.solve(system, -residual)
        x += delta[:n]
        lam += delta[n:]
    return x


@lru_cache(maxsize=None)
def reference_solution(name: str) -> ReferenceSolution:
    """Stationary point reached by the exact-oracle solver from the standard start.

    Runs the zero-noise iteration (small constant Hessian scaling for a
    fast decay) into the stationary point's basin, then applies the
    Newton refinement so the cached point satisfies the constraint
    system to ~1e-12 and the KKT residual to well below 1e-10.  The
    refined point is verified before caching; merit-descent alone stalls
    near 1e-8 where merit differences drop under double rounding.
    """
    from .solver import SolverConfig, solve

    p = get_problem(name)
    cfg = SolverConfig(beta=5.0, max_iters=5000, relaxation_enabled=False,
                       zero_noise_tol=1e-6)
    result = solve(p, NoiseSpec(0.0, 0.0, seed=0), cfg)
    x_star = _newton_polish(p, result.x)

    g = np.asarray(p.eval_g(x_star), dtype=float)
    J = np.asarray(p.eval_J(x_star), dtype=float)
    c = np.asarray(p.eval_c(x_star), dtype=float)
    kkt = float(np.linalg.norm(project_tangent(J, g)))
    if kkt > 1e-10 or float(np.max(np.abs(c))) > 1e-10:
        raise RuntimeError(
            f"reference for {name} failed verification (kkt={kkt:.2e}, "
            f"feas={np.max(np.abs(c)):.2e})"
        )
    x_star.flags.writeable = False  # cached and shared across callers
    return ReferenceSolution(x_star=x_star, f_star=float(p.eval_f(x_star)))
