"""Bit-string genotypes, the jump fitness function, variation operators, and RNG plumbing.

A genotype is a fixed-length bit string packed into a Python integer (bit ``i``
holds position ``i``), so counting ones is a hardware popcount via
``int.bit_count`` and species identity is plain integer equality.  All scalar
randomness is served by :class:`RandomStream`, one iterator over blocks of a
counter-seeded PCG64 generator with explicit ``(seed, stream)`` indexing, so
every run is replayable and independent replicates/grid cells get provably
disjoint streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import NamedTuple

import numpy as np

_TWO53 = 2.0**53


class SettingError(ValueError):
    """A setting outside its domain.

    Raised only by the check in the code that uses the value, and only before
    that code's first draw; that check is the value's one check.  The CLI
    turns it into a usage error (exit 2).  A check that can fail only on a
    bug in the calling code raises plain ValueError.
    """


def check_at_least(low: int, **values: int | None) -> None:
    """Raise SettingError for the first value below ``low`` (1 or 0); None passes."""
    for name, value in values.items():
        if value is not None and value < low:
            raise SettingError(f"{name} must be {'positive' if low else 'non-negative'}, got {value}")


class Genotype(NamedTuple):
    """Fixed-length bit string; ``bits`` packs positions ``0..n-1``."""

    bits: int
    n: int


@dataclass(frozen=True)
class GaParams:
    """Problem dimension and algorithm knobs for the steady-state GA.

    Attributes
    ----------
    n : int
        Bit-string dimension.
    k : int
        Jump width: the fitness plateau sits at ``n - k`` ones and the sole
        optimum is the all-ones string.  Restricted to ``1 <= k <= n/2``.
    mu : int
        Parent population size (at least 2).
    p_c : float
        Per-iteration probability of applying crossover, in ``[0, 1]``.
    chi : float
        Mutation strength; each bit flips independently with probability
        ``chi / n``.
    seed : int
        Base seed (64-bit, non-negative) from which all streams derive.
    mutation_walk : tuple[float, float]
        Derived, not settable: ``_binomial_walk(n, p_m)``, which ``ga_step``
        runs inline, or leaves to ``RandomStream.binomial`` when its start is 0.
    """

    n: int
    k: int
    mu: int
    p_c: float
    chi: float
    seed: int = 1
    mutation_walk: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise SettingError(f"n must be positive, got {self.n}")
        if not (1 <= self.k and 2 * self.k <= self.n):
            raise SettingError(f"k must satisfy 1 <= k <= n/2, got k={self.k}, n={self.n}")
        if self.mu < 2:
            raise SettingError(f"mu must be at least 2, got {self.mu}")
        if not 0.0 <= self.p_c <= 1.0:
            raise SettingError(f"p_c must lie in [0, 1], got {self.p_c}")
        if not (0.0 < self.chi <= self.n and self.p_m):  # a subnormal chi can round p_m to 0
            raise SettingError(f"chi must lie in (0, n], got {self.chi}")
        if not 0 <= self.seed < 2**64:
            raise SettingError(f"seed must be a non-negative 64-bit integer, got {self.seed}")
        object.__setattr__(self, "mutation_walk", _binomial_walk(self.n, self.p_m))

    @property
    def p_m(self) -> float:
        """Per-bit mutation probability chi / n."""
        return self.chi / self.n

    @property
    def optimum_fitness(self) -> int:
        return self.n + self.k


class RandomStream:
    """Deterministic random stream: scalar uniforms over PCG64, one iterator.

    Every scalar draw used by the GA (coins, indices, bit masks, binomial
    counts) is derived from consecutive uniforms of this stream, which makes
    the draw order of a step easy to state and replay exactly.  Vectorized
    consumers can use the underlying numpy ``generator`` directly; mixing the
    two is still deterministic because blocks are fetched at fixed points in
    the consumption sequence: the next block of ``BLOCK`` uniforms comes from
    ``generator`` when a draw finds the current one used up.

    The uniforms are served by one C-level iterator chained over the blocks
    (as Python floats), so each draw is one ``__next__`` call.  The stream
    holds that iterator, and no cache of any setting; it cannot be pickled
    or deep-copied.
    """

    __slots__ = ("generator", "_next", "_block", "__weakref__")

    BLOCK = 4096

    def __init__(self, generator: np.random.Generator):
        self.generator = generator
        self._block: list = [None]  # the current block's list iterator, once drawn from
        self._next = chain.from_iterable(_blocks(generator, self.BLOCK, self._block)).__next__

    @property
    def _pos(self) -> int:
        """Uniforms drawn from the current block: 0 before the first draw."""
        block = self._block[0]
        return 0 if block is None else self.BLOCK - block.__length_hint__()

    def uniform(self) -> float:
        """Next uniform float in [0, 1)."""
        return self._next()

    def index(self, bound: int) -> int:
        """Uniform integer in [0, bound): the next uniform times ``bound``, rounded down."""
        i = int(self._next() * bound)
        return i if i < bound else bound - 1

    def random_bits(self, nbits: int) -> int:
        """Integer whose low ``nbits`` bits are independent fair coin flips.

        Takes the next ceil(nbits / 53) uniforms and the word ``int(u * 2**53)``
        of each (exact: numpy's doubles are multiples of ``2**-53``), lowest
        bits from the first.
        """
        draw = self._next
        out = 0
        for shift in range(0, nbits, 53):
            out |= int(draw() * _TWO53) << shift
        return out & ((1 << nbits) - 1)

    def binomial(self, n: int, p: float) -> int:
        """Binomial(n, p) variate via the walk of :func:`_binomial_walk` on one uniform."""
        if p <= 0.0:
            return 0
        if p >= 1.0:
            return n
        c, ratio = _binomial_walk(n, p)
        if c == 0.0:
            # (1-p)^n underflowed; fall back to the generator's own sampler.
            return int(self.generator.binomial(n, p))
        u = self._next()
        cum = c
        m = 0
        while u > cum and m < n:
            m += 1
            c *= ratio * (n - m + 1) / m
            cum += c
        return m


def _binomial_walk(n: int, p: float) -> tuple[float, float]:
    """Start (1-p)^n and ratio p/(1-p) of the Binomial(n, p) inverse-CDF walk
    (start 0.0 at p = 1): the one evaluation of (1-p)^n, for walks and bounds."""
    if p >= 1.0:
        return 0.0, math.inf
    return math.exp(n * math.log1p(-p)), p / (1.0 - p)


def _blocks(generator: np.random.Generator, size: int, current: list):
    """Endless list iterators over blocks of ``size`` uniforms, each also stored as
    ``current[0]``.  It holds no reference to a stream, so that a stream is freed
    without the cyclic garbage collector."""
    while True:
        current[0] = block = iter(generator.random(size).tolist())
        yield block


def make_rng(seed: int, stream: int = 0) -> RandomStream:
    """Independent reproducible random stream ``stream`` under ``seed``.

    Streams with distinct indices are non-overlapping by construction
    (PCG64 keyed through a seed sequence with the stream index as spawn key).
    """
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a non-negative 64-bit integer, got {seed}")
    if stream < 0:
        raise ValueError(f"stream index must be non-negative, got {stream}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return RandomStream(np.random.Generator(np.random.PCG64(ss)))


def _floyd_mask(rng: RandomStream, n: int, m: int) -> int:
    """Bitmask of a uniform random m-subset of range(n) (Floyd's sampling algorithm).

    Draws exactly ``m`` uniforms, one per element, for ``j`` ranging over
    ``n-m .. n-1`` in ascending order: ``t``, the uniform turned into an
    index below ``j + 1`` as :meth:`RandomStream.index` does, joins the
    subset, or ``j`` does when ``t`` is already in it.
    """
    draw = rng._next
    mask = 0
    for j in range(n - m, n):
        t = int(draw() * (j + 1))
        bit = 1 << (t if t <= j else j)  # the rounding and clamp of RandomStream.index(j + 1)
        mask |= (1 << j) if mask & bit else bit
    return mask


def random_index_subset(rng: RandomStream, n: int, m: int) -> set[int]:
    """Uniform random m-subset of range(n), with the draws of :func:`_floyd_mask`."""
    if not 0 <= m <= n:
        raise ValueError(f"subset size {m} outside [0, {n}]")
    mask = _floyd_mask(rng, n, m)
    return {i for i in range(n) if mask >> i & 1}


def hamming_distance(a: Genotype, b: Genotype) -> int:
    """Number of differing positions."""
    if a.n != b.n:
        raise ValueError(f"genotype length mismatch: {a.n} != {b.n}")
    return (a.bits ^ b.bits).bit_count()


def jump_fitness(g: Genotype, k: int) -> int:
    """Jump fitness with gap width ``k``.

    Returns ``k + |x|`` when ``|x| = n`` or ``|x| <= n - k`` and ``n - |x|``
    inside the gap, where ``|x|`` counts ones.  The all-ones string is the
    unique maximum with value ``n + k``; strings with exactly ``n - k`` ones
    form a plateau of value ``n``.
    """
    n = g.n
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    ones = g.bits.bit_count()
    if ones == n or ones <= n - k:
        return k + ones
    return n - ones


def uniform_crossover(a: Genotype, b: Genotype, rng: RandomStream) -> Genotype:
    """Each position independently takes ``a``'s bit or ``b``'s bit with equal probability."""
    if a.n != b.n:
        raise ValueError(f"genotype length mismatch: {a.n} != {b.n}")
    mask = rng.random_bits(a.n)
    # tuple.__new__ skips the NamedTuple's Python-level __new__ on this hot path.
    return tuple.__new__(Genotype, ((a.bits & mask) | (b.bits & ~mask), a.n))


def standard_bit_mutation(g: Genotype, p_m: float, rng: RandomStream) -> Genotype:
    """Flip every bit independently with probability ``p_m``.

    Sampled as a binomial flip count followed by a uniform random subset of
    positions of that size, which realizes the same distribution as n
    per-bit coins.
    """
    if not 0.0 <= p_m <= 1.0:
        raise ValueError(f"p_m must lie in [0, 1], got {p_m}")
    n = g.n
    m = rng.binomial(n, p_m)
    if m == 0:
        return g
    if m == n:
        return tuple.__new__(Genotype, (g.bits ^ ((1 << n) - 1), n))
    return tuple.__new__(Genotype, (g.bits ^ _floyd_mask(rng, n, m), n))
