"""Equality-constrained problem abstraction and bounded-noise oracles.

A :class:`Problem` bundles exact callbacks for the objective, constraints
and their first derivatives.  :func:`eval_noisy` wraps them in a uniform
noise model: every scalar quantity is perturbed by an independent draw
from ``U(-eps, eps)``, with ``eps1`` governing function/constraint values
and ``eps2`` governing gradient/Jacobian entries.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

Vector = np.ndarray
Matrix = np.ndarray


@dataclass(frozen=True, eq=False)
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
        # A bool would pass as 0 or 1; a float would fail later, as a draw count or slice index.
        if not all(isinstance(d, numbers.Integral) and not isinstance(d, bool) and d > 0
                   for d in (self.n, self.m)):
            raise ValueError(f"dimensions must be positive integers, got n={self.n}, m={self.m}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "m", int(self.m))
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


def _is_real(value) -> bool:
    """True for a real number other than a bool, which would pass range checks as 0 or 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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
        # NaN fails the range check too.
        if not all(_is_real(e) and 0 <= e < math.inf for e in (self.eps1, self.eps2)):
            raise ValueError("noise half-widths must be nonnegative and finite numbers")
        if isinstance(self.seed, bool) or not (
                isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.seed > _M32:
            raise ValueError(f"seed must be below 2**32, got {self.seed!r}")
        object.__setattr__(self, "eps1", float(self.eps1))
        object.__setattr__(self, "eps2", float(self.eps2))
        object.__setattr__(self, "seed", int(self.seed))

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

    def stream(self) -> "NoiseStream":
        return NoiseStream(self.seed)


# numpy's SeedSequence mix constants (numpy/random/bit_generator.pyx).
_M32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hashmix(const: int, mult: int):
    """numpy's ``hashmix`` with its running hash constant, from ``const`` on:
    ``hashmix(values, rows)`` hashes uint32 lanes ``values``, broadcast to
    ``rows`` rows, row i as numpy's i-th next call would
    (``h = value ^ const; const *= mult; h *= const; h ^= h >> 16``)."""
    def hashmix(values: np.ndarray, rows: int) -> np.ndarray:
        nonlocal const
        consts = [const]
        for _ in range(rows):
            consts.append(consts[-1] * mult & _M32)
        const = consts[-1]
        k = np.array(consts, dtype=np.uint32)[:, None]
        h = values ^ k[:-1]
        h *= k[1:]
        h ^= h >> 16
        return h
    return hashmix


def _seed_words(seed: int, block: int) -> np.ndarray:
    """``SeedSequence((seed, c)).generate_state(4, np.uint64)`` for the 256
    counters c of aligned block ``block``, from ``256 * block`` on.

    numpy's ``mix_entropy`` and ``generate_state`` for a two-word entropy,
    with one uint32 lane per counter; seed and every counter must fit in
    32 bits.  Returns a C-contiguous ``(256, 4)`` uint64 array, so each row
    is one counter's four words in memory, as PCG64 reads them.
    """
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)  # INIT_A, MULT_A
    entropy = np.zeros((4, 256), dtype=np.uint32)
    entropy[0], entropy[1] = seed, np.arange(256 * block, 256 * block + 256, dtype=np.uint32)
    pool = hashmix(entropy, 4)
    for s in range(4):
        # mix(pool[d], hashmix(pool[s])) into every other word d, in d order
        d = [i for i in range(4) if i != s]
        mixed = pool[d] * _MIX_L
        mixed -= hashmix(pool[s], 3) * _MIX_R
        mixed ^= mixed >> 16
        pool[d] = mixed
    # generate_state(4, np.uint64): eight words from the pool cycled twice,
    # hashed from INIT_B with MULT_B, paired low word first.
    words = _hashmix(0x8B51F9DD, 0x58F38DED)(np.concatenate((pool, pool)), 8).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << np.uint64(32)).T)


_MAX_BLOCKS = 128
_BLOCK_WIDTH = 24  # the widest draw of the shipped problems: HS40's full evaluation
_NO_DRAWS = np.empty(0)
_NO_DRAWS.flags.writeable = False


class _RowSeed:
    """numpy's seed-sequence interface over one counter's row of
    :func:`_seed_words`, which PCG64 reads as ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


@functools.lru_cache(maxsize=_MAX_BLOCKS)
def _draw_block(seed: int, block: int, width: int) -> np.ndarray:
    """The first ``width`` uniforms of each counter of aligned block
    ``block``, as a read-only ``(256, width)`` array.

    Row ``r`` is what ``Generator.random`` draws from a PCG64 that numpy
    seeds with counter ``256 * block + r``'s words, passed through
    :class:`_RowSeed`.  ``width`` is 24 or a wider request's own count
    (see :class:`NoiseStream`).
    """
    # Registered here, not on import, so that importing the package does
    # not import numpy.random; registering again is a no-op.
    np.random.bit_generator.ISeedSequence.register(_RowSeed)
    draws = np.empty((256, width))
    for row, words in zip(draws, _seed_words(seed, block)):
        np.random.Generator(np.random.PCG64(_RowSeed(words))).random(out=row)
    draws.flags.writeable = False
    return draws


@dataclass
class NoiseStream:
    """Counter-keyed source of per-evaluation uniform draws.

    Evaluation ``counter`` of stream ``seed`` reads the uniforms that
    ``np.random.default_rng(np.random.SeedSequence((seed, counter)))``
    draws first, so a run's noise depends only on its seed and call
    sequence.  Concurrent runs each own a stream and cannot perturb one
    another.  Seed and counter are ``int`` values in ``[0, 2**32)``.

    The draws are shared by every stream of a seed.  The process keeps an
    LRU cache of the last 128 blocks of 256 counters, keyed on ``(seed,
    counter // 256, width)``; ``k`` draws read a block 24 wide (HS40's full
    evaluation, the widest of the shipped problems), or ``k`` wide when
    ``k`` is larger, so a key depends only on the request, never on what
    ran before.  A block is built whole on a miss, one float64 row per
    counter from a numpy PCG64 seeded with the counter's words of numpy's
    ``SeedSequence`` hash (:func:`_seed_words`).  At most
    128 * 256 * 24 * 8 bytes (6.3 MB) for draws of at most 24; a wider
    request's blocks take ``k / 24`` times that.  A block is read-only and
    never changes.  A zero-width draw reads no block.
    """

    seed: int
    counter: int = 0

    def next_rng(self, k: int) -> np.ndarray:
        """The first ``k`` uniforms of evaluation ``counter``, read-only;
        advances the counter by one.

        Raises ValueError if the seed or counter is not an ``int`` in
        ``[0, 2**32)`` or ``k`` is not an ``int`` >= 0, a bool counting
        as no ``int``.  On any error the counter is unchanged.
        """
        seed, counter = self.seed, self.counter
        if not (type(seed) is int and 0 <= seed <= _M32
                and type(counter) is int and 0 <= counter <= _M32
                and type(k) is int and k >= 0):
            raise ValueError("noise seed and counter must be ints in [0, 2**32) and k an "
                             f"int >= 0, got seed={seed!r}, counter={counter!r}, k={k!r}")
        u = (_draw_block(seed, counter >> 8, max(_BLOCK_WIDTH, k))[counter & 255, :k]
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


def _shape_error(p: Problem, callback: str, got: tuple, want: tuple) -> ValueError:
    return ValueError(f"{p.name}: {callback} returned shape {got}, expected {want}")


def eval_exact(p: Problem, x: Vector, derivatives: bool = True) -> NoisyEval:
    """Evaluate the oracles at x with zero perturbation.

    With ``derivatives`` false only f and c are evaluated, and g and J
    are None.  Raises ValueError, naming the problem and the callback,
    when c, g or J, converted to float arrays, is not of shape (m,), (n,)
    or (m, n).
    """
    x = _check_point(p, x)
    f = float(p.eval_f(x))
    c = np.asarray(p.eval_c(x), dtype=float)
    if c.shape != (p.m,):
        raise _shape_error(p, "eval_c", c.shape, (p.m,))
    if not derivatives:
        return NoisyEval(f, c, None, None)
    g = np.asarray(p.eval_g(x), dtype=float)
    if g.shape != (p.n,):
        raise _shape_error(p, "eval_g", g.shape, (p.n,))
    J = np.asarray(p.eval_J(x), dtype=float)
    if J.shape != (p.m, p.n):
        raise _shape_error(p, "eval_J", J.shape, (p.m, p.n))
    return NoisyEval(f, c, g, J)


@functools.lru_cache(maxsize=128)
def _noise_map(eps1: float, eps2: float, m: int, n: int, derivatives: bool):
    """Draw counts (k1 for f and c, k2 for g and J) and the read-only
    per-draw ``lo`` (-eps) and ``span`` (eps - -eps) of one evaluation."""
    k1 = 1 + m if eps1 > 0 else 0
    k2 = n * (1 + m) if eps2 > 0 and derivatives else 0
    lo = np.repeat(np.array([-eps1, -eps2], dtype=float), (k1, k2))
    span = np.repeat(np.array([eps1 - -eps1, eps2 - -eps2], dtype=float), (k1, k2))
    lo.flags.writeable = span.flags.writeable = False
    return k1, k2, lo, span


def eval_noisy(
    p: Problem, x: Vector, spec: NoiseSpec, stream: NoiseStream, derivatives: bool = True
) -> NoisyEval:
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
    spec : NoiseSpec
        Half-widths of the uniform perturbations.
    stream : NoiseStream
        Advanced by exactly one evaluation; repeated calls with equal
        (seed, counter) state reproduce identical draws.
    derivatives : bool
        False evaluates only f and c (g and J are None).  Their noise is
        drawn first, so they equal a full evaluation's bit for bit.

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
    k1, k2, lo, span = _noise_map(spec.eps1, spec.eps2, p.m, p.n, derivatives)
    # One row of draws in the order f, c, g, J (row-major), mapped to the
    # per-entry lo + span * u of Generator.uniform, so the values equal
    # separate uniform(-eps, eps) calls bit for bit.
    w = stream.next_rng(k1 + k2) * span
    w += lo
    if k1:
        f = f + float(w[0])
        c = c + w[1:k1]
    if k2:
        g = g + w[k1:k1 + p.n]
        J = J + w[k1 + p.n:].reshape(p.m, p.n)
    return NoisyEval(f, c, g, J, exact)
