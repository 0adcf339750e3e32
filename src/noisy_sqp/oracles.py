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


def _is_real(value) -> bool:
    """True for a real number other than a bool, which would pass range checks as 0 or 1."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class NoiseSpec:
    """Half-widths of the uniform noise added to oracle evaluations.

    ``eps1`` is the half-width for the objective and each constraint
    value, ``eps2`` for each gradient and Jacobian entry.  ``seed``, an
    integer in ``[0, 2**32)``, keys the deterministic noise stream (see
    :class:`NoiseStream`: its draw blocks are built whole and read-only,
    and a zero-width draw reads none).  Numpy scalars are stored as the
    builtin float and int, so specs serialize to JSON.
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


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the PCG64
# LCG multiplier (pcg64.h), for hashing many entropy pairs at once.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(value: int, mult: int, count: int) -> list[int]:
    out = []
    for _ in range(count):
        out.append(value)
        value = value * mult & _M32
    return out


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# hashmix call k xors with A[k] and multiplies by A[k+1]; generate_state
# word k likewise uses B[k] and B[k+1].
_A = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_INIT_X, _INIT_M = _column(_A[0:4]), _column(_A[1:5])


def _cross_constants() -> list[tuple[np.ndarray, np.ndarray]]:
    """Per source word, the hashmix constants of each destination word.

    numpy mixes source s into every other destination d in (s, d) loop
    order; the source's own row gets placeholders, and its result is
    discarded.
    """
    out, k = [], 4
    for s in range(4):
        xor, mult = [0] * 4, [0] * 4
        for d in range(4):
            if d != s:
                xor[d], mult[d] = _A[k], _A[k + 1]
                k += 1
        out.append((_column(xor), _column(mult)))
    return out


_CROSS = _cross_constants()
_GEN_X, _GEN_M = _column(_B[0:8]), _column(_B[1:9])


def _seed_words(seed: int, block: int) -> np.ndarray:
    """``SeedSequence((seed, c)).generate_state(4, np.uint64)`` for the 256
    counters c of aligned block ``block``, from ``256 * block`` on.

    numpy's pool mixing and state generation for a two-word entropy, with
    one uint32 lane per counter; seed and every counter must fit in 32 bits.
    Returns a ``(256, 4)`` uint64 array.
    """
    pool = np.empty((4, 256), dtype=np.uint32)
    pool[0], pool[2:] = seed, 0
    pool[1] = np.arange(256 * block, 256 * block + 256, dtype=np.uint32)
    pool ^= _INIT_X
    pool *= _INIT_M
    pool ^= pool >> 16
    for s, (xor, mult) in enumerate(_CROSS):
        h = pool[s] ^ xor
        h *= mult
        h ^= h >> 16
        h *= _MIX_R
        mixed = pool * _MIX_L
        mixed -= h
        mixed ^= mixed >> 16
        mixed[s] = pool[s]
        pool = mixed
    state = np.concatenate((pool, pool))
    state ^= _GEN_X
    state *= _GEN_M
    state ^= state >> 16
    # generate_state(4, np.uint64) pairs the eight uint32 words low word first.
    words = state.astype(np.uint64)
    return (words[0::2] | words[1::2] << np.uint64(32)).T


_MAX_BLOCKS = 64
_width = 0  # the largest draw count requested so far; new blocks are this wide
_NO_DRAWS = np.empty(0)
_NO_DRAWS.flags.writeable = False


@functools.lru_cache(maxsize=_MAX_BLOCKS)
def _draw_block(seed: int, block: int, width: int) -> np.ndarray:
    """The first ``width`` uniforms of each counter of aligned block
    ``block``, as a read-only ``(256, width)`` array.

    Row ``r`` is what ``Generator.random`` draws from counter
    ``256 * block + r``'s PCG64 state, loaded through one state dict.
    """
    draws = np.empty((256, width))
    pcg = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    rng = np.random.Generator(np.random.PCG64(0))  # state set before every use
    for row, (a, b, c, d) in zip(draws, _seed_words(seed, block).tolist()):
        inc = ((c << 64 | d) << 1 | 1) & _M128
        # pcg64_set_seed: two LCG steps from state 0 with initstate added between
        pcg["state"] = ((inc + (a << 64 | b)) * _PCG_MULT + inc) & _M128
        pcg["inc"] = inc
        rng.bit_generator.state = state
        rng.random(out=row)
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
    LRU cache of the last 64 blocks of 256 counters, keyed on ``(seed,
    counter // 256, width)``.  A block is built whole on a miss: its 256
    seed-sequence hashes (see :func:`_seed_words`) give one float64 row
    per counter, as wide as the largest draw count requested so far (24
    for HS40: at most 64 * 256 * 24 * 8 bytes, 3.1 MB).  The block is
    read-only and never changes; a wider request builds a new one.  A
    zero-width draw reads no block.
    """

    seed: int
    counter: int = 0

    def next_rng(self, k: int) -> np.ndarray:
        """The first ``k`` uniforms of evaluation ``counter``, read-only;
        advances the counter by one.

        Raises ValueError if the seed or counter is not an ``int`` in
        ``[0, 2**32)`` or ``k`` is not an ``int`` >= 0, a bool counting
        as no ``int``.  On any error the counter and the width are unchanged.
        """
        global _width
        seed, counter = self.seed, self.counter
        if not (type(seed) is int and 0 <= seed <= _M32
                and type(counter) is int and 0 <= counter <= _M32
                and type(k) is int and k >= 0):
            raise ValueError("noise seed and counter must be ints in [0, 2**32) and k an "
                             f"int >= 0, got seed={seed!r}, counter={counter!r}, k={k!r}")
        u = _draw_block(seed, counter >> 8, max(_width, k))[counter & 255, :k] if k else _NO_DRAWS
        _width = max(_width, k)  # only once the block exists
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


def eval_exact(p: Problem, x: Vector, derivatives: bool = True) -> NoisyEval:
    """Evaluate the oracles at x with zero perturbation.

    With ``derivatives`` false only f and c are evaluated, and g and J
    are None.
    """
    x = _check_point(p, x)
    f = float(p.eval_f(x))
    c = np.asarray(p.eval_c(x), dtype=float)
    if not derivatives:
        return NoisyEval(f, c, None, None)
    return NoisyEval(f, c, np.asarray(p.eval_g(x), dtype=float),
                     np.asarray(p.eval_J(x), dtype=float))


@functools.lru_cache(maxsize=128)
def _noise_map(eps1: float, eps2: float, m: int, n: int, derivatives: bool):
    """Draw counts (k1 for f and c, k2 for g and J) and the read-only
    per-draw ``lo`` (-eps) and ``span`` (eps - -eps) of one evaluation."""
    m, n = int(m), int(n)  # next_rng takes an int count, also for numpy-integer dimensions
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
    row may be shared with other streams of the seed through the
    per-process draw cache (see :class:`NoiseStream`), and is never
    written.

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
