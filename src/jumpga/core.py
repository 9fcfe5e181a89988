"""Bit-string genotypes, the jump fitness function, Floyd's subset draw, and RNG plumbing.

A genotype is its packed int: a bit string of length ``n`` stored in a Python
integer (bit ``i`` holds position ``i``), so counting ones is a hardware
popcount via ``int.bit_count``, species identity is plain integer equality,
and a step builds no genotype object.  The length ``n`` is not stored with
the bits; every function that needs it takes it, usually from
:class:`GaParams`.  All scalar randomness is served by :class:`RandomStream`,
one iterator over blocks of a counter-seeded PCG64 generator with explicit
``(seed, stream)`` indexing, so every run is replayable and independent
replicates/grid cells get provably disjoint streams.  numpy is imported by
:func:`make_rng`, not by this module, so a CLI run that makes no stream
(``--help``, ``bounds``, a usage error) never loads it.  A mutation's flip
count is one uniform, bisected into the Binomial(n, chi/n) table of
:func:`_binomial_cdf` at every chi in (0, n]; the table is built once per
(n, p) and shared by every :class:`GaParams` and
:meth:`RandomStream.binomial` call that asks for it, and it is the package's
one inverse CDF.  So every draw is a uniform of the stream's blocks.  The
variation operators run inline in :func:`jumpga.ga.ga_step`; their
one-at-a-time reference versions, which the tests hold the kernel to, live
in ``tests/reference.py`` with the walk that the table replaced.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from math import floor
from typing import TYPE_CHECKING

if TYPE_CHECKING:
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
    mutation_cdf : tuple[float, ...]
        Derived, not settable: ``_binomial_cdf(n, p_m)``, the flip-count
        table that ``ga_step`` bisects; never empty, and its last entry is 1.0.
    mask_shifts : tuple[int, ...]
        Derived, not settable: ``tuple(range(53, n, 53))``, the shifts of the
        crossover mask's words after the first, which ``ga_step`` iterates;
        empty when one word covers n (n <= 53).
    """

    n: int
    k: int
    mu: int
    p_c: float
    chi: float
    seed: int = 1
    mutation_cdf: tuple[float, ...] = field(init=False, repr=False, compare=False)
    mask_shifts: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "mutation_cdf", _binomial_cdf(self.n, self.p_m))
        object.__setattr__(self, "mask_shifts", tuple(range(53, self.n, 53)))

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
    consumers can use the underlying numpy ``generator`` directly.  The
    stream itself takes nothing from it but its blocks: the next block of
    ``BLOCK`` uniforms comes from ``generator.random`` when a draw finds the
    current one used up, so the generator's state is fixed by the number of
    uniforms drawn.

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
        """Uniform integer in [0, bound): ``floor(u * bound)`` of the next uniform ``u``
        (on [0, 1) the same integer as ``int(u * bound)``), clamped below ``bound``."""
        i = floor(self._next() * bound)
        return i if i < bound else bound - 1

    def random_bits(self, nbits: int) -> int:
        """Integer whose low ``nbits`` bits are independent fair coin flips.

        Takes the next ceil(nbits / 53) uniforms and the word ``floor(u * 2**53)``
        of each (exact: numpy's doubles are multiples of ``2**-53``, and on
        [0, 1) it equals ``int(u * 2**53)``), lowest bits from the first.
        """
        draw = self._next
        out = 0
        for shift in range(0, nbits, 53):
            out |= floor(draw() * _TWO53) << shift
        return out & ((1 << nbits) - 1)

    def binomial(self, n: int, p: float) -> int:
        """Binomial(n, p) variate for p in [0, 1]: the table of :func:`_binomial_cdf`
        bisected at one uniform."""
        return bisect_left(_binomial_cdf(n, p), self._next())


def _no_flip(n: int, p: float) -> float:
    """(1-p)^n, 0.0 at p = 1: the one evaluation of it, for the flip-count table and bounds."""
    return math.exp(n * math.log1p(-p)) if p < 1.0 else 0.0


def _log_term(n: int, p: float, m: int) -> float:
    """log of the Binomial(n, p) term of m, for 0 < p < 1."""
    log_choose = math.lgamma(n + 1) - math.lgamma(m + 1) - math.lgamma(n - m + 1)
    return log_choose + m * math.log(p) + (n - m) * math.log1p(-p)


@functools.lru_cache(maxsize=64)
def _binomial_cdf(n: int, p: float) -> tuple[float, ...]:
    """Running sums of the Binomial(n, p) terms, ending at exactly 1.0, so that
    ``bisect_left(table, u)`` is the count of a uniform ``u`` in [0, 1), for
    every p in [0, 1].

    The sums start at the first term that is a normal double.  That is
    (1-p)^n, unless it is below ``sys.float_info.min`` (np above about 708 at
    large n, or p = 1); then the first count with a normal term is found in
    log space, and each count below it gets the entry -1.0, under every
    uniform.  Each next term is the last times ``p/(1-p) * (n-m+1) / m``, in
    that order of float operations.  The sums stop once one reaches 1.0,
    before a zero term, or at m = n, and the last is then set to 1.0.

    A table has at most n + 1 entries.  Where (1-p)^n is normal, the terms
    underflow soon after the mean, so it has fewer than about 2 000 at any
    n; only where (1-p)^n is not normal can the -1.0 entries make it longer,
    up to n + 1 at p = 1.  The last 64 tables asked for are kept, so a caller
    that draws many counts at one (n, p) builds its table once.
    """
    if p == 1.0:
        return (-1.0,) * n + (1.0,)
    c = _no_flip(n, p)
    m = 0
    if c < sys.float_info.min:  # the terms rise up to the mode, whose term is normal
        log_term = functools.partial(_log_term, n, p)
        m = bisect_left(range(int((n + 1) * p) + 1), math.log(sys.float_info.min), key=log_term)
        c = math.exp(log_term(m))
    ratio = p / (1.0 - p)
    cum = c
    cdf = [-1.0] * m + [cum]
    while cum < 1.0 and m < n:
        m += 1
        c *= ratio * (n - m + 1) / m
        if not c:
            break
        cum += c
        cdf.append(cum)
    cdf[-1] = 1.0
    return tuple(cdf)


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
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return RandomStream(np.random.Generator(np.random.PCG64(ss)))


def _floyd_mask(rng: RandomStream, n: int, m: int) -> int:
    """Bitmask of a uniform random m-subset of range(n) (Floyd's sampling algorithm).

    Draws exactly ``m`` uniforms, one per element, for ``j`` ranging over
    ``n-m .. n-1`` in ascending order: ``t = floor(u * (j + 1))`` of the
    uniform ``u`` (equal to ``int(u * (j + 1))`` on [0, 1)), clamped below
    ``j + 1`` as :meth:`RandomStream.index` does, joins the subset, or ``j``
    does when ``t`` is already in it.
    """
    draw = rng._next
    mask = 0
    for j in range(n - m, n):
        t = floor(draw() * (j + 1))
        bit = 1 << (t if t <= j else j)  # the rounding and clamp of RandomStream.index(j + 1)
        mask |= (1 << j) if mask & bit else bit
    return mask


def jump_fitness(bits: int, n: int, k: int) -> int:
    """Jump fitness with gap width ``k`` of the length-``n`` string ``bits``.

    Returns ``k + |x|`` when ``|x| = n`` or ``|x| <= n - k`` and ``n - |x|``
    inside the gap, where ``|x|`` counts ones.  The all-ones string is the
    unique maximum with value ``n + k``; strings with exactly ``n - k`` ones
    form a plateau of value ``n``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    ones = bits.bit_count()
    if ones == n or ones <= n - k:
        return k + ones
    return n - ones
