"""The stationarity measure psi that traces record.

psi combines the two quantities the convergence theory measures: the
projected gradient P g and the constraint violation ||c||_1.  P g comes
from kernels.project_tangent, the one projection outside the step
kernel; the CLI's KKT residual ||P g|| calls it too.
"""

from __future__ import annotations

from .kernels import project_tangent
from .oracles import Matrix, Vector, _l1


def stationarity_psi(
    g: Vector, c: Vector, J: Matrix, pi: float, tau: float, b_u: float
) -> float:
    """Non-stationarity measure (1/b_u)*||P g||^2 + pi*tau*||c||_1.

    Zero exactly at KKT points: both the projected gradient and the
    constraint violation must vanish.  ``b_u`` is the upper bound on the
    Hessian scaling (equal to beta when beta is constant).  The rank
    gate of the projection raises before the check on ``b_u``.
    """
    pg = project_tangent(J, g)
    if not b_u > 0:
        raise ValueError(f"b_u must be positive, got {b_u}")
    return float(pg.dot(pg) / b_u + pi * tau * _l1(c))
