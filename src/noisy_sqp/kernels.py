"""Dense linear-algebra kernels for the SQP step.

With a scaled-identity Hessian model beta*I the quadratic subproblem

    min_d  0.5*beta*||d||^2 + g'd   s.t.  c + J d = 0

has the closed-form solution d = v + u with a normal component
v = -J'(JJ')^{-1} c restoring linearized feasibility and a tangential
component u = -(1/beta) P g, where P = I - J'(JJ')^{-1} J projects onto
the null space of J.  Every quantity comes from one thin SVD
J = U diag(s) Vt: s gives the rank gate, v = -Vt' (U'c / s),
lambda_hat = U (Vt g / s) and P w = w - Vt'(Vt w).  No Gram matrix JJ'
is formed, so the solves keep the conditioning of J rather than its
square, and no n-by-n projector is formed either.

The SVD is numpy's LAPACK gufunc numpy.linalg._umath_linalg.svd_s (the
dgesdd call behind np.linalg.svd(J, full_matrices=False), without that
wrapper's per-call cost).  Three guards go with it:

- the finiteness check comes first, because the SVD computing singular
  vectors may never return for a J holding an infinity;
- the gufunc does not raise when LAPACK fails to converge but fills its
  outputs with NaN, so a NaN s[0] raises LinAlgError;
- U and Vt are allocated in Fortran order (order="F"), the layout
  LAPACK writes them in; the default would be C order, and numpy's
  matmul picks its BLAS call by layout, so only this one gives the step
  its bits.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

Vector = np.ndarray
Matrix = np.ndarray

# Relative rank threshold: J counts as rank deficient when
# sigma_min <= RANK_TOL * sigma_max.
RANK_TOL = 1e-10


class SingularJacobianError(RuntimeError):
    """Constraint Jacobian is (numerically) rank deficient."""

    def __init__(self, sigma_min: float):
        super().__init__(f"Jacobian numerically rank deficient (sigma_min={sigma_min:.3e})")
        self.sigma_min = float(sigma_min)


class NonFiniteJacobianError(np.linalg.LinAlgError):
    """Constraint Jacobian holds a NaN or an infinity."""


class StepResult(NamedTuple):
    """Step d = v + u, its orthogonal components, and the multiplier estimate."""

    d: Vector
    v: Vector
    u: Vector
    lambda_hat: Vector


def factor_jacobian(J: Matrix) -> tuple[Matrix, Vector, Matrix]:
    """Rank-gate the float matrix J and return its thin SVD (U, s, Vt).

    s holds the singular values in descending order.  Raises
    NonFiniteJacobianError when J holds a NaN or an infinity, and
    SingularJacobianError when sigma_min <= RANK_TOL * sigma_max, where
    a J with more rows than columns has sigma_min = 0, and LinAlgError
    when the SVD does not converge.
    """
    if not np.isfinite(J).all():
        raise NonFiniteJacobianError("Jacobian has a NaN or an infinite entry")
    U, s, Vt = _umath_linalg.svd_s(J, order="F")
    if not s[0] == s[0]:
        raise np.linalg.LinAlgError("SVD did not converge")
    sigma_min = s[-1] if len(s) == len(J) else 0.0
    if not sigma_min > RANK_TOL * s[0]:
        raise SingularJacobianError(sigma_min)
    return U, s, Vt


def project_tangent(J: Matrix, w: Vector) -> Vector:
    """Project w onto the null space of J: w - J'(JJ')^{-1} J w."""
    _, _, Vt = factor_jacobian(np.asarray(J, dtype=float))
    w = np.asarray(w, dtype=float)
    return w - Vt.T @ (Vt @ w)


def solve_sqp_step(J: Matrix, c: Vector, g: Vector, beta: float) -> StepResult:
    """Solve the scaled-identity QP subproblem in closed form.

    Parameters
    ----------
    J : float array, shape (m, n)
        Constraint Jacobian, full row rank.
    c : float array, shape (m,)
        Constraint values; the step satisfies J d = -c.
    g : float array, shape (n,)
        Objective gradient.
    beta : float
        Positive curvature of the Hessian model beta*I.

    Returns
    -------
    StepResult with d = v + u, <u, v> = 0, and the multiplier estimate
    lambda_hat = (JJ')^{-1} J g.
    """
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    U, s, Vt = factor_jacobian(J)
    vg = Vt @ g
    lambda_hat = U @ (vg / s)
    v = -(Vt.T @ ((U.T @ c) / s))
    u = -(g - Vt.T @ vg) / beta
    return StepResult(v + u, v, u, lambda_hat)
