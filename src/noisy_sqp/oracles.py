"""Equality-constrained problem abstraction and bounded-noise oracles.

A :class:`Problem` bundles two exact callbacks: one for the objective and
constraint values, one for their first derivatives.  :func:`eval_noisy`
wraps them in a uniform noise model: every scalar quantity is perturbed by
an independent draw from ``U(-eps, eps)``, with ``eps1`` governing
function/constraint values and ``eps2`` governing gradient/Jacobian entries.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import InitVar, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


@dataclass(frozen=True, eq=False)
class Problem:
    """An equality-constrained problem: minimize f(x) subject to c(x) = 0.

    The solver asks a problem two things: f and c at every line-search
    trial, and f, c, g and J at every iterate.  Each callback answers one.

    Attributes:
        name: Identifier used in traces and summaries.
        n: Number of variables.
        m: Number of equality constraints; must satisfy m < n.
        eval_fc: x -> (f, c): the objective value and the constraint
            residual vector, length m.
        eval_gJ: x -> (g, J): the objective gradient, length n, and the
            constraint Jacobian, shape (m, n).
        x_start: Standard starting point, length n.
    """

    name: str
    n: int
    m: int
    eval_fc: Callable[[Vector], tuple[float, Vector]]
    eval_gJ: Callable[[Vector], tuple[Vector, Matrix]]
    x_start: Vector
    # Only perfbench/test_perfbench.py still builds Problem(name, n, m, f, c,
    # g, J, x_start); ROADMAP item 1 rewrites it and deletes these two.
    _J: InitVar[Optional[Callable[[Vector], Matrix]]] = None
    _x_start: InitVar[Optional[Vector]] = None

    def __post_init__(self, _J, _x_start):
        if _J is not None:
            f, c, g = self.eval_fc, self.eval_gJ, self.x_start
            object.__setattr__(self, "eval_fc", lambda x: (f(x), c(x)))
            object.__setattr__(self, "eval_gJ", lambda x: (g(x), _J(x)))
            object.__setattr__(self, "x_start", _x_start)
        for name in ("n", "m"):  # a float would fail later, as a draw count or slice index
            object.__setattr__(self, name, _integer(getattr(self, name), name, positive=True))
        if self.m >= self.n:
            raise ValueError(f"need m < n, got m={self.m}, n={self.n}")
        x0 = np.array(self.x_start, dtype=float)  # a copy: the caller keeps theirs
        if x0.shape != (self.n,):
            raise ValueError(f"x_start has shape {x0.shape}, expected ({self.n},)")
        x0.flags.writeable = False
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


_SIGN = {False: "nonnegative", True: "positive"}


def _real(value, name: str, positive: bool = False) -> float:
    """``value`` as a builtin float if it is a finite real, > 0 when ``positive``,
    else >= 0.  NaN fails, and a bool is no real: it would pass as 0 or 1."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (0 < value if positive else 0 <= value) and value < math.inf):
        return float(value)
    raise ValueError(f"{name} must be {_SIGN[positive]} and finite, got {value!r}")


def _integer(value, name: str, positive: bool = False, bits: Optional[int] = None) -> int:
    """``value`` as a builtin int if it is an integer, > 0 when ``positive``,
    else >= 0, and below ``2**bits`` when ``bits`` is given.  A bool is no integer."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= int(positive)):
        raise ValueError(f"{name} must be a {_SIGN[positive]} integer, got {value!r}")
    if bits is not None and int(value) >= 2**bits:
        raise ValueError(f"{name} must be below 2**{bits}, got {value!r}")
    return int(value)


def _l1(v: Vector) -> float:
    """||v||_1 as a builtin float, summed left to right: numpy's order below 8
    entries, so the bits of ``np.add.reduce(np.abs(v))``, while numpy sums 8 or
    more pairwise.  A loop, as ``sum`` compensates its rounding from Python 3.12."""
    s = 0.0
    for a in v.tolist():
        s += abs(a)
    return s


def _linf(v: Vector) -> float:
    """||v||_inf of a non-empty v as a builtin float, NaN if any entry is NaN:
    the bits of ``np.maximum.reduce(np.abs(v))``, where ``max`` would drop a NaN."""
    m = 0.0
    for a in v.tolist():
        a = abs(a)
        if a > m:
            m = a
        elif a != a:
            return a
    return m


@dataclass(frozen=True)
class NoiseSpec:
    """Half-widths of the uniform noise added to oracle evaluations.

    ``eps1`` is the half-width for the objective and each constraint
    value, ``eps2`` for each gradient and Jacobian entry.  ``seed``, an
    integer in ``[0, 2**32)``, keys the deterministic noise stream (see
    :class:`NoiseStream`).  Numpy scalars are stored as the builtin float
    and int, so specs serialize to JSON.
    """

    eps1: float
    eps2: float
    seed: int = 0

    def __post_init__(self):
        for name in ("eps1", "eps2"):
            object.__setattr__(self, name, _real(getattr(self, name), "noise half-widths"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", bits=32))

    def bounds(self, n: int, m: int) -> NoiseBounds:
        """Derived norm bounds for a problem of size (n, m).

        The Jacobian bound m*sqrt(n)*eps2 is the worst case of the
        (l2 -> l1) induced norm.
        """
        return NoiseBounds(
            eps_f=self.eps1,
            eps_c=m * self.eps1,
            eps_g=math.sqrt(n) * self.eps2,
            eps_J=m * math.sqrt(n) * self.eps2,
        )


_MAX_BLOCKS = 128
_BLOCK_WIDTH = 24  # the widest draw of the shipped problems: HS40's full evaluation
_NO_DRAWS = np.empty(0)
_NO_DRAWS.flags.writeable = False


@functools.lru_cache(maxsize=_MAX_BLOCKS)
def _draw_block(seed: int, block: int, width: int) -> np.ndarray:
    """The first ``width`` uniforms of each counter of aligned block
    ``block``, as a read-only ``(256, width)`` array.

    Row ``r`` is what ``Generator.random`` draws first from a PCG64 that
    numpy seeds with ``SeedSequence((seed, 256 * block + r))``.  ``width``
    is 24 or a wider request's own count (see :class:`NoiseStream`).
    """
    draws = np.empty((256, width))
    for counter, row in enumerate(draws, 256 * block):
        bits = np.random.PCG64(np.random.SeedSequence((seed, counter)))
        np.random.Generator(bits).random(out=row)
    draws.flags.writeable = False
    return draws


@dataclass
class NoiseStream:
    """Counter-keyed source of per-evaluation uniform draws for a :class:`NoiseSpec`.

    Evaluation ``counter`` of a stream of ``spec`` reads the uniforms that
    ``np.random.default_rng(np.random.SeedSequence((spec.seed, counter)))``
    draws first, so a run's noise depends only on its seed and call
    sequence.  Concurrent runs each own a stream and cannot perturb one
    another.  The spec checked its seed when it was built; the counter is
    an ``int`` in ``[0, 2**32)``, and :meth:`next_rng` checks both.

    The draws are shared by every stream of a seed.  The process keeps an
    LRU cache of the last 128 blocks of 256 counters, keyed on ``(seed,
    counter // 256, width)``; ``k`` draws read a block 24 wide (HS40's full
    evaluation, the widest of the shipped problems), or ``k`` wide when
    ``k`` is larger, so a key depends only on the request, never on what
    ran before; :func:`eval_noisy` asks for its problem's whole row (see
    :func:`_noise_map`).  A block is built whole on a miss, about 20
    microseconds a row, and is read-only and never changes: at most 128 *
    256 * 24 * 8 bytes (6.3 MB) for draws of at most 24, and ``k / 24``
    times that for a wider request.  A zero-width draw reads no block.
    """

    spec: NoiseSpec
    counter: int = 0

    def __post_init__(self):
        if not isinstance(self.spec, NoiseSpec):
            raise ValueError(f"a noise stream needs a NoiseSpec, got {self.spec!r}")

    def next_rng(self, k: int) -> np.ndarray:
        """The first ``k`` uniforms of evaluation ``counter``, read-only;
        advances the counter by one.

        Raises ValueError if the spec is not a :class:`NoiseSpec`, the
        counter is not an ``int`` in ``[0, 2**32)`` or ``k`` is not an
        ``int`` >= 0, a bool counting as no ``int``.  On any error the
        counter is unchanged.
        """
        spec, counter = self.spec, self.counter
        if not (isinstance(spec, NoiseSpec) and type(counter) is int and 0 <= counter < 2**32
                and type(k) is int and k >= 0):
            raise ValueError("a noise stream needs a NoiseSpec, its counter must be an int in "
                             "[0, 2**32) and k an int >= 0, "
                             f"got spec={spec!r}, counter={counter!r}, k={k!r}")
        u = (_draw_block(spec.seed, counter >> 8, max(_BLOCK_WIDTH, k))[counter & 255, :k]
             if k else _NO_DRAWS)
        self.counter = counter + 1
        return u


class NoisyEval(NamedTuple):
    """One (possibly perturbed) oracle evaluation: value, constraints, derivatives.

    ``g`` and ``J`` are None for a value-only evaluation.  ``exact`` is the
    unperturbed evaluation at the same point that :func:`eval_noisy` drew
    its noise onto, so callers can read the exact g, c and J without
    calling the problem again; it is None on :func:`eval_exact`'s own
    result.
    """

    f: float
    c: Vector
    g: Optional[Vector]
    J: Optional[Matrix]
    exact: Optional["NoisyEval"] = None


def _check_point(p: Problem, x: Vector) -> Vector:
    x = np.asarray(x, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"point has shape {x.shape}, expected ({p.n},) for {p.name}")
    return x


def _pair(p: Problem, callback: str, out, quantities: str) -> tuple:
    """``out``, the result of ``p``'s ``callback``, as a pair, or a ValueError
    naming the problem and the callback."""
    try:
        first, second = out
    except (TypeError, ValueError):  # raised by the unpacking: the callback has returned
        raise ValueError(f"{p.name}: {callback} returned {out!r:.80}, "
                         f"expected a pair {quantities}") from None
    return first, second


def _array(p: Problem, callback: str, quantity: str, value, shape: tuple) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if value.shape != shape:
        raise ValueError(f"{p.name}: {callback} returned {quantity} of shape {value.shape}, "
                         f"expected {shape}")
    return value


def eval_exact(p: Problem, x: Vector, derivatives: bool = True) -> NoisyEval:
    """Evaluate the oracles at x with zero perturbation.

    Calls ``p.eval_fc`` once and, with ``derivatives``, ``p.eval_gJ`` once;
    without, g and J are None.  Raises ValueError, naming the problem and
    the callback, when a callback returns no pair, and naming the quantity
    too when f, c, g or J, converted to float arrays, is not of shape (),
    (m,), (n,) or (m, n).  An exception raised inside a callback passes
    through unchanged.
    """
    x = _check_point(p, x)
    f, c = _pair(p, "eval_fc", p.eval_fc(x), "(f, c)")
    if type(f) is not float:  # the shipped problems return Python floats
        f = float(_array(p, "eval_fc", "f", f, ()))
    c = _array(p, "eval_fc", "c", c, (p.m,))
    if not derivatives:
        return NoisyEval(f, c, None, None)
    g, J = _pair(p, "eval_gJ", p.eval_gJ(x), "(g, J)")
    return NoisyEval(f, c, _array(p, "eval_gJ", "g", g, (p.n,)),
                     _array(p, "eval_gJ", "J", J, (p.m, p.n)))


@functools.lru_cache(maxsize=128)
def _noise_map(eps1: float, eps2: float, m: int, n: int):
    """Counts (k1 for f and c, k2 for g and J) and read-only per-draw ``lo``
    (-eps) and ``span`` (eps - -eps) of the one row that every evaluation
    draws; a value-only evaluation uses its leading k1."""
    k1 = 1 + m if eps1 > 0 else 0
    k2 = n * (1 + m) if eps2 > 0 else 0
    lo = np.repeat(np.array([-eps1, -eps2], dtype=float), (k1, k2))
    span = np.repeat(np.array([eps1 - -eps1, eps2 - -eps2], dtype=float), (k1, k2))
    lo.flags.writeable = span.flags.writeable = False
    return k1, k2, lo, span


def eval_noisy(p: Problem, x: Vector, stream: NoiseStream, derivatives: bool = True) -> NoisyEval:
    """Evaluate the oracles at x and add one fresh uniform draw per scalar.

    One :func:`eval_exact` call gives the exact values and one
    :meth:`NoiseStream.next_rng` call the evaluation's read-only row of
    draws ``u``, mapped to ``w = u * span; w += lo`` (``lo = -eps``,
    ``span = eps - -eps``) with the bits of ``Generator.uniform``.  The
    row may be shared with other streams of the seed through the draw
    cache (see :class:`NoiseStream`) and is never written.

    Parameters
    ----------
    p : Problem
    x : array, shape (n,)
    stream : NoiseStream
        Its ``spec`` gives the half-widths of the uniform perturbations.
        Advanced by exactly one evaluation; repeated calls with equal
        (spec, counter) state reproduce identical draws.
    derivatives : bool
        False evaluates only f and c (g and J are None), from the same row
        (see :func:`_noise_map`), so they equal a full evaluation's bit for bit.

    Returns
    -------
    NoisyEval with `|f_noisy - f| <= eps1`, entrywise `|c_i| <= eps1`
    off the exact constraint values, and entrywise `eps2` bounds on the
    gradient and Jacobian perturbations.  Its ``exact`` field is the one
    :func:`eval_exact` result the noise was added to.  With eps1 = eps2 = 0
    the result equals :func:`eval_exact` bitwise.
    """
    exact = eval_exact(p, x, derivatives)
    f, c, g, J, _ = exact
    k1, k2, lo, span = _noise_map(stream.spec.eps1, stream.spec.eps2, p.m, p.n)
    # One row of draws in the order f, c, g, J (row-major), mapped to the
    # per-entry lo + span * u of Generator.uniform, so the values equal
    # separate uniform(-eps, eps) calls bit for bit.
    w = stream.next_rng(k1 + k2) * span
    w += lo
    if k1:
        f = f + float(w[0])
        c = c + w[1:k1]
    if k2 and derivatives:
        g = g + w[k1:k1 + p.n]
        J = J + w[k1 + p.n:].reshape(p.m, p.n)
    return NoisyEval(f, c, g, J, exact)
