"""Dense linear-algebra kernels for the SQP step.

With a scaled-identity Hessian model beta*I the quadratic subproblem

    min_d  0.5*beta*||d||^2 + g'd   s.t.  c + J d = 0

has the closed-form solution d = v + u with a normal component
v = -J'(JJ')^{-1} c restoring linearized feasibility and a tangential
component u = -(1/beta) P g, where P = I - J'(JJ')^{-1} J projects onto
the null space of J.  All solves go through one Cholesky factorization
of the small Gram matrix JJ' (pseudo-inverse fallback when Cholesky
breaks down); the n-by-n projector is never formed.  Singular values,
for the rank gate and for diagnostics, come from one LAPACK dgesdd call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgesdd, dpotrf, dpotrs

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


@dataclass(frozen=True)
class StepResult:
    """Step d = v + u, its orthogonal components, and the multiplier estimate."""

    d: Vector
    v: Vector
    u: Vector
    lambda_hat: Vector
    beta: float


def singular_values(J: Matrix) -> Vector:
    """Singular values of the float matrix J in descending order.

    Calls LAPACK dgesdd without singular vectors, the routine behind
    np.linalg.svd(J, compute_uv=False), minus numpy's wrapper.  A NaN
    entry raises NonFiniteJacobianError (dgesdd reports info = -4); an
    infinite entry passes through as NaN singular values.
    """
    _, s, _, info = dgesdd(J, compute_uv=0)
    if info == 0:
        return s
    if info == -4:
        raise NonFiniteJacobianError("Jacobian has a NaN entry")
    raise np.linalg.LinAlgError(f"SVD did not converge (dgesdd info={info})")


def min_singular_value(J: Matrix) -> float:
    """Smallest singular value of J (0 for rank-deficient J)."""
    return float(singular_values(np.asarray(J, dtype=float))[-1])


def factor_gram(
    J: Matrix, rank_tol: float = RANK_TOL
) -> tuple[Callable[[Vector], Vector], Vector]:
    """Rank-gate J and factor JJ' once.

    Returns a solver for (JJ')y = b and the singular values of J in
    descending order.  Raises SingularJacobianError when
    sigma_min <= rank_tol * sigma_max, and NonFiniteJacobianError when J
    holds a NaN or an infinity.  The LAPACK routines are the ones
    scipy.linalg.cho_factor/cho_solve call, minus their argument checks.
    """
    s = singular_values(J)
    if not s[-1] > rank_tol * s[0]:
        if math.isfinite(s[0]) and math.isfinite(s[-1]):
            raise SingularJacobianError(s[-1])
        raise NonFiniteJacobianError("Jacobian has an infinite entry")
    gram = J @ J.T
    factor, info = dpotrf(gram, lower=1, clean=0)
    if info == 0:
        return (lambda b: dpotrs(factor, b, lower=1)[0]), s
    if info < 0:
        raise ValueError(f"dpotrf: illegal value in argument {-info}")
    # Reachable past the rank gate: forming JJ' squares the condition
    # number, so with sigma_min/sigma_max between ~1e-10 and ~1e-8 the
    # Gram matrix can lose definiteness in floating point.
    gram_inv = np.linalg.pinv(gram)
    return (lambda b: gram_inv @ b), s


def least_squares_multiplier(J: Matrix, g: Vector, rank_tol: float = RANK_TOL) -> Vector:
    """Least-squares multiplier estimate (JJ')^{-1} J g.

    Raises SingularJacobianError when J is numerically rank deficient.
    """
    J = np.asarray(J, dtype=float)
    g = np.asarray(g, dtype=float)
    solve, _ = factor_gram(J, rank_tol)
    return solve(J @ g)


def project_tangent(J: Matrix, w: Vector, rank_tol: float = RANK_TOL) -> Vector:
    """Project w onto the null space of J: w - J'(JJ')^{-1} J w."""
    J = np.asarray(J, dtype=float)
    w = np.asarray(w, dtype=float)
    solve, _ = factor_gram(J, rank_tol)
    return w - J.T @ solve(J @ w)


def solve_sqp_step(
    J: Matrix, c: Vector, g: Vector, beta: float, rank_tol: float = RANK_TOL
) -> StepResult:
    """Solve the scaled-identity QP subproblem in closed form.

    Parameters
    ----------
    J : array, shape (m, n)
        Constraint Jacobian, full row rank.
    c : array, shape (m,)
        Constraint values; the step satisfies J d = -c.
    g : array, shape (n,)
        Objective gradient.
    beta : float
        Positive curvature of the Hessian model beta*I.

    Returns
    -------
    StepResult with d = v + u, <u, v> = 0, and the multiplier estimate
    lambda_hat = (JJ')^{-1} J g.
    """
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    J = np.asarray(J, dtype=float)
    c = np.asarray(c, dtype=float)
    g = np.asarray(g, dtype=float)
    solve, _ = factor_gram(J, rank_tol)
    lambda_hat = solve(J @ g)
    v = -J.T @ solve(c)
    u = -(g - J.T @ lambda_hat) / beta
    return StepResult(d=v + u, v=v, u=u, lambda_hat=lambda_hat, beta=float(beta))
