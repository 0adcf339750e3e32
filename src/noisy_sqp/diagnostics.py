"""Stationarity and step-quality diagnostics for traces and tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import factor_gram, project_tangent
from .oracles import Matrix, Problem, Vector


@dataclass(frozen=True)
class DiagnosticsRow:
    """Point-wise health indicators, computed from exact oracles when available."""

    psi: float
    kkt_residual: float
    feasibility: float
    sigma_min: float


def stationarity_psi(
    g: Vector, c: Vector, J: Matrix, pi: float, tau: float, b_u: float
) -> float:
    """Non-stationarity measure (1/b_u)*||P g||^2 + pi*tau*||c||_1.

    Zero exactly at KKT points: both the projected gradient and the
    constraint violation must vanish.  ``b_u`` is the upper bound on the
    Hessian scaling (equal to beta when beta is constant).
    """
    return _psi(project_tangent(J, g), c, pi, tau, b_u)


def _psi(pg: Vector, c: Vector, pi: float, tau: float, b_u: float) -> float:
    """psi from the projected gradient pg = P g."""
    if b_u <= 0:
        raise ValueError(f"b_u must be positive, got {b_u}")
    return float(np.dot(pg, pg) / b_u + pi * tau * np.abs(c).sum())


def kkt_residual(g: Vector, J: Matrix, lam: Vector) -> float:
    """First-order optimality defect ||g + J' lam||.

    With lam equal to the negated least-squares multiplier this reduces
    to the projected-gradient norm ||P g||.
    """
    return float(np.linalg.norm(np.asarray(g, float) + np.asarray(J, float).T @ lam))


def evaluate_diagnostics(
    p: Problem, x: Vector, pi: float, tau: float, b_u: float
) -> DiagnosticsRow:
    """All indicators at x from the exact oracles, from one factorization of JJ'."""
    g = np.asarray(p.eval_g(x), dtype=float)
    c = np.asarray(p.eval_c(x), dtype=float)
    J = np.asarray(p.eval_J(x), dtype=float)
    solve, sigma = factor_gram(J)
    # P g = g - J'lam_ls is the KKT residual at the multiplier -lam_ls.
    pg = g - J.T @ solve(J @ g)
    return DiagnosticsRow(
        psi=_psi(pg, c, pi, tau, b_u),
        kkt_residual=float(np.linalg.norm(pg)),
        feasibility=float(np.sum(np.abs(c))),
        sigma_min=float(sigma[-1]),
    )
