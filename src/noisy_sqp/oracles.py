"""Equality-constrained problem abstraction and bounded-noise oracles.

A :class:`Problem` bundles exact callbacks for the objective, constraints
and their first derivatives.  :func:`eval_noisy` wraps them in a uniform
noise model: every scalar quantity is perturbed by an independent draw
from ``U(-eps, eps)``, with ``eps1`` governing function/constraint values
and ``eps2`` governing gradient/Jacobian entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


@dataclass(frozen=True)
class Problem:
    """An equality-constrained problem: minimize f(x) subject to c(x) = 0.

    Attributes:
        name: Identifier used in traces and summaries.
        n: Number of variables.
        m: Number of equality constraints; must satisfy m < n.
        eval_f: x -> objective value.
        eval_c: x -> constraint residual vector, length m.
        eval_g: x -> objective gradient, length n.
        eval_J: x -> constraint Jacobian, shape (m, n).
        x_start: Standard starting point, length n.
    """

    name: str
    n: int
    m: int
    eval_f: Callable[[Vector], float]
    eval_c: Callable[[Vector], Vector]
    eval_g: Callable[[Vector], Vector]
    eval_J: Callable[[Vector], Matrix]
    x_start: Vector

    def __post_init__(self):
        if self.n <= 0 or self.m <= 0:
            raise ValueError(f"dimensions must be positive, got n={self.n}, m={self.m}")
        if self.m >= self.n:
            raise ValueError(f"need m < n, got m={self.m}, n={self.n}")
        x0 = np.asarray(self.x_start, dtype=float)
        if x0.shape != (self.n,):
            raise ValueError(f"x_start has shape {x0.shape}, expected ({self.n},)")
        object.__setattr__(self, "x_start", x0)


@dataclass(frozen=True)
class NoiseBounds:
    """Norm-level bounds implied by entrywise uniform noise.

    eps_f bounds |f noise|, eps_c bounds the l1 norm of the constraint
    noise, eps_g the Euclidean norm of the gradient noise, and eps_J the
    Jacobian noise in the norm induced by l2 on inputs and l1 on outputs.
    """

    eps_f: float
    eps_c: float
    eps_g: float
    eps_J: float

    def scaled(self, multiplier: float) -> "NoiseBounds":
        return NoiseBounds(
            self.eps_f * multiplier,
            self.eps_c * multiplier,
            self.eps_g * multiplier,
            self.eps_J * multiplier,
        )


@dataclass(frozen=True)
class NoiseSpec:
    """Half-widths of the uniform noise added to oracle evaluations.

    ``eps1`` is the half-width for the objective and each constraint
    value, ``eps2`` for each gradient and Jacobian entry.  ``seed`` keys
    the deterministic noise stream.
    """

    eps1: float
    eps2: float
    seed: int = 0

    def __post_init__(self):
        if self.eps1 < 0 or self.eps2 < 0:
            raise ValueError("noise half-widths must be nonnegative")

    def bounds(self, n: int, m: int, jacobian_bound: str = "induced") -> NoiseBounds:
        """Derived norm bounds for a problem of size (n, m).

        ``jacobian_bound`` selects the Jacobian formula: ``"induced"``
        gives the worst case m*sqrt(n)*eps2 of the (l2 -> l1) induced
        norm; ``"frobenius"`` gives sqrt(m*n)*eps2, which bounds the
        Frobenius (and hence spectral) norm of the noise matrix.
        """
        if jacobian_bound == "induced":
            eps_j = m * math.sqrt(n) * self.eps2
        elif jacobian_bound == "frobenius":
            eps_j = math.sqrt(m * n) * self.eps2
        else:
            raise ValueError(f"unknown jacobian_bound {jacobian_bound!r}")
        return NoiseBounds(
            eps_f=self.eps1,
            eps_c=m * self.eps1,
            eps_g=math.sqrt(n) * self.eps2,
            eps_J=eps_j,
        )

    def stream(self) -> "NoiseStream":
        return NoiseStream(self.seed)


@dataclass
class NoiseStream:
    """Counter-keyed source of per-evaluation random generators.

    Each oracle evaluation gets its own generator derived from
    ``(seed, counter)``, so a run's noise depends only on its seed and
    call sequence.  Concurrent runs each own a stream and cannot
    perturb one another.
    """

    seed: int
    counter: int = 0

    def next_rng(self) -> np.random.Generator:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(self.seed, self.counter)))
        self.counter += 1
        return rng


@dataclass(frozen=True)
class NoisyEval:
    """One (possibly perturbed) oracle evaluation: value, constraints, derivatives."""

    f: float
    c: Vector
    g: Vector
    J: Matrix


def _check_point(p: Problem, x: Vector) -> Vector:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.n},) for {p.name}")
    return x


def eval_exact(p: Problem, x: Vector) -> NoisyEval:
    """Evaluate all four oracles at x with zero perturbation."""
    x = _check_point(p, x)
    return NoisyEval(
        f=float(p.eval_f(x)),
        c=np.asarray(p.eval_c(x), dtype=float),
        g=np.asarray(p.eval_g(x), dtype=float),
        J=np.asarray(p.eval_J(x), dtype=float),
    )


def eval_noisy(p: Problem, x: Vector, spec: NoiseSpec, stream: NoiseStream) -> NoisyEval:
    """Evaluate the oracles at x and add one fresh uniform draw per scalar.

    Parameters
    ----------
    p : Problem
    x : array, shape (n,)
    spec : NoiseSpec
        Half-widths of the uniform perturbations.
    stream : NoiseStream
        Advanced by exactly one evaluation; repeated calls with equal
        (seed, counter) state reproduce identical draws.

    Returns
    -------
    NoisyEval with `|f_noisy - f| <= eps1`, entrywise `|c_i| <= eps1`
    off the exact constraint values, and entrywise `eps2` bounds on the
    gradient and Jacobian perturbations.  With eps1 = eps2 = 0 the
    result equals :func:`eval_exact` bitwise.
    """
    exact = eval_exact(p, x)
    rng = stream.next_rng()
    f, c, g, J = exact.f, exact.c, exact.g, exact.J
    e1, e2 = spec.eps1, spec.eps2
    # One block of draws in the order f, c, g, J (row-major), each mapped
    # as low + (high - low) * u exactly as Generator.uniform does, so the
    # values equal separate uniform(-eps, eps) calls bit for bit.
    k1 = 1 + p.m if e1 > 0 else 0
    k2 = p.n * (1 + p.m) if e2 > 0 else 0
    u = rng.random(k1 + k2)
    if k1:
        w = -e1 + (e1 - -e1) * u[:k1]
        f = f + w[0]
        c = c + w[1:]
    if k2:
        w = -e2 + (e2 - -e2) * u[k1:]
        g = g + w[:p.n]
        J = J + w[p.n:].reshape(p.m, p.n)
    return NoisyEval(f=float(f), c=c, g=g, J=J)
