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

from .oracles import Problem, Vector, _check_point, eval_exact

PROBLEM_NAMES = ("HS7", "BT11", "HS40")

_SQRT18 = math.sqrt(18.0)
_SQRT8 = math.sqrt(8.0)


def _on_floats(body):
    """The callback ``x -> body(*x)``, evaluated on Python floats.

    Each problem has two bodies: ``fc`` returns (f, c) and ``gJ`` returns (g, J).

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
    def fc(x1, x2):
        return math.log1p(x1 ** 2) - x2, np.array([(1.0 + x1 ** 2) ** 2 + x2 ** 2 - 4.0])

    @_on_floats
    def gJ(x1, x2):
        return (np.array([2.0 * x1 / (1.0 + x1 ** 2), -1.0]),
                np.array([[4.0 * x1 * (1.0 + x1 ** 2), 2.0 * x2]]))

    return Problem("HS7", 2, 1, fc, gJ, np.array([2.0, 2.0]))


def _bt11() -> Problem:
    # min -x1 x2 x3 x4   s.t.  x1^3 + x2^2 = 1,  x1^2 x4 = x3,  x4^2 = x2
    @_on_floats
    def fc(x1, x2, x3, x4):
        c = [x1 ** 3 + x2 ** 2 - 1.0, x1 ** 2 * x4 - x3, x4 ** 2 - x2]
        return -x1 * x2 * x3 * x4, np.array(c)

    @_on_floats
    def gJ(x1, x2, x3, x4):
        g = [-x2 * x3 * x4, -x1 * x3 * x4, -x1 * x2 * x4, -x1 * x2 * x3]
        J = [
            [3.0 * x1 ** 2, 2.0 * x2, 0.0, 0.0],
            [2.0 * x1 * x4, 0.0, -1.0, x1 ** 2],
            [0.0, -1.0, 0.0, 2.0 * x4],
        ]
        return np.array(g), np.array(J)

    return Problem("BT11", 4, 3, fc, gJ, np.array([2.0, 2.0, 2.0, 2.0]))


def _hs40() -> Problem:
    # min (x1-1)^2 + (x1-x2)^2 + (x2-x3)^2 + (x3-x4)^4 + (x4-x5)^4
    # s.t. x1 + x2^2 + x3^3 = sqrt(18) - 2
    #      x2 + x4 + x3^2   = sqrt(8) - 2
    #      x1 - x5          = 2
    @_on_floats
    def fc(x1, x2, x3, x4, x5):
        f = (x1 - 1.0) ** 2 + (x1 - x2) ** 2 + (x2 - x3) ** 2 + (x3 - x4) ** 4 + (x4 - x5) ** 4
        c = [
            x1 + x2 ** 2 + x3 ** 3 + 2.0 - _SQRT18,
            x2 + x4 + x3 ** 2 + 2.0 - _SQRT8,
            x1 - x5 - 2.0,
        ]
        return f, np.array(c)

    @_on_floats
    def gJ(x1, x2, x3, x4, x5):
        d34 = (x3 - x4) ** 3
        d45 = (x4 - x5) ** 3
        g = [
            2.0 * (x1 - 1.0) + 2.0 * (x1 - x2),
            -2.0 * (x1 - x2) + 2.0 * (x2 - x3),
            -2.0 * (x2 - x3) + 4.0 * d34,
            -4.0 * d34 + 4.0 * d45,
            -4.0 * d45,
        ]
        J = [
            [1.0, 2.0 * x2, 3.0 * x3 ** 2, 0.0, 0.0],
            [0.0, 1.0, 2.0 * x3, 1.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, -1.0],
        ]
        return np.array(g), np.array(J)

    return Problem("HS40", 5, 3, fc, gJ, np.full(5, 0.8))


_BUILDERS = {"HS7": _hs7, "BT11": _bt11, "HS40": _hs40}


def _named(table: dict, name: str):
    """``table[name]``, or a KeyError that lists the benchmark problems."""
    try:
        return table[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: {', '.join(PROBLEM_NAMES)}"
        ) from None


def get_problem(name: str) -> Problem:
    """Look up a benchmark problem by name (HS7, BT11, HS40)."""
    return _named(_BUILDERS, name)()


_FD_STEP = 1e-6  # central-difference step of verify_derivatives


def verify_derivatives(p: Problem, x: Vector) -> float:
    """Max relative disagreement between analytic and central-difference derivatives.

    Compares g against differences of f and each column of J against
    differences of c, with step 1e-6.  Errors are relative to
    max(1, |analytic entry|).  A NaN disagreement makes the result NaN.
    Every value is read through :func:`eval_exact`, so a point or a
    callback result of the wrong shape raises its ValueError.
    """
    x = _check_point(p, x)
    _, _, g, J, _ = eval_exact(p, x)
    fd_g, fd_J = np.empty(p.n), np.empty((p.m, p.n))
    for j in range(p.n):
        e = np.zeros(p.n)
        e[j] = _FD_STEP
        up, down = eval_exact(p, x + e, derivatives=False), eval_exact(p, x - e, derivatives=False)
        fd_g[j] = (up.f - down.f) / (2.0 * _FD_STEP)
        fd_J[:, j] = (up.c - down.c) / (2.0 * _FD_STEP)
    err_g = np.abs(fd_g - g) / np.maximum(1.0, np.abs(g))
    err_J = np.abs(fd_J - J) / np.maximum(1.0, np.abs(J))
    # np.maximum, unlike the builtin max, keeps a NaN disagreement.
    return float(np.maximum(err_g.max(), err_J.max()))


@dataclass(frozen=True, eq=False)
class ReferenceSolution:
    """A derived stationary point used as the distance reference in experiments."""

    x_star: Vector


# Each problem's stationary point, as derived from its standard start: a
# zero-noise solve (beta=5, relaxation off, 5000 iterations, stop-test
# estimates 1e-6) followed by three Newton steps on (g + J'lam, c) = 0
# with a central-difference Lagrangian Hessian (step 1e-6).  The digits
# are that derivation's repr, not the analytic optimum: HS7's x1 is
# -1.05e-44 and its x2 one ulp above sqrt(3).  tests/test_problems.py
# checks them to ||c||_inf <= 1e-10 and ||P g|| <= 1e-10.
_X_STAR = {
    "HS7": (-1.0515212304562397e-44, 1.7320508075688774),
    "BT11": (0.7937005259840997, 0.7071067811865476, 0.5297315471796475,
             0.8408964152537145),
    "HS40": (1.25312242578965, 0.9704561899793266, 0.36274912950928057,
             -0.2736159961928774, -0.7468775742103501),
}


@lru_cache(maxsize=None)
def reference_solution(name: str) -> ReferenceSolution:
    """The stored stationary point of a benchmark problem."""
    x_star = np.array(_named(_X_STAR, name))
    x_star.flags.writeable = False  # cached and shared across callers
    return ReferenceSolution(x_star=x_star)
