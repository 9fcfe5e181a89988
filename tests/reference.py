"""Reference operators that the tests hold the package's fused kernel to.

``ga_step`` runs each operator inline on packed ints.  These are the same
operators written one at a time, with the same draws: ``manual_step`` and the
twin-stream tests chain them draw for draw against the kernel, and the
distribution tests check their law.  ``draw_index`` and ``draw_bits`` turn
uniforms into integers in the documented ``int`` form, which the package
computes as ``floor``, so the twin-stream tests hold one form to the other.
``check_population`` recomputes a population's caches from its members,
``snapshot`` keeps a population's state across an in-place step,
``floyd_reference`` is Floyd's sampler on a set, ``binomial_walk`` is the
flip-count walk that the bisected table replaces, and ``series_rows`` expands
a figure1 series into one row per row time.
Genotypes are packed ints, as in the package; ``Genotype`` is the
``(bits, n)`` pair that the package once stored, kept here only so that
pinned digests hash the text they always hashed.
``estimate_unconditioned_drift`` is the Monte Carlo drift that check 06 and
the estimator tests read, on the one-step estimators' own trial loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

from jumpga import GaParams, IntegrityError, Population, RandomStream, jump_fitness
from jumpga.core import _floyd_mask
from jumpga.experiments import DistanceSeriesRun, _count_moves


class Genotype(NamedTuple):
    """A packed genotype with its length, for ``repr`` in pinned digests only."""

    bits: int
    n: int


def hamming_distance(a: int, b: int) -> int:
    """Number of differing positions."""
    return (a ^ b).bit_count()


def draw_index(rng: RandomStream, bound: int) -> int:
    """The documented index draw: ``min(int(u * bound), bound - 1)`` of the next uniform ``u``."""
    return min(int(rng.uniform() * bound), bound - 1)


def draw_bits(rng: RandomStream, nbits: int) -> int:
    """The documented mask draw: the words ``int(u * 2**53)`` of the next
    ceil(nbits / 53) uniforms, lowest bits from the first, cut to ``nbits`` bits."""
    out = 0
    for shift in range(0, nbits, 53):
        out |= int(rng.uniform() * 2**53) << shift
    return out & ((1 << nbits) - 1)


def uniform_crossover(a: int, b: int, n: int, rng: RandomStream) -> int:
    """Each of the ``n`` positions independently takes ``a``'s bit or ``b``'s bit with equal probability."""
    mask = draw_bits(rng, n)
    return (a & mask) | (b & ~mask)


def standard_bit_mutation(g: int, n: int, p_m: float, rng: RandomStream) -> int:
    """Flip every one of the ``n`` bits independently with probability ``p_m``.

    Sampled as a binomial flip count followed by a uniform random subset of
    positions of that size, which realizes the same distribution as n
    per-bit coins.
    """
    if not 0.0 <= p_m <= 1.0:
        raise ValueError(f"p_m must lie in [0, 1], got {p_m}")
    m = rng.binomial(n, p_m)
    if m == 0:
        return g
    if m == n:
        return g ^ ((1 << n) - 1)
    return g ^ _floyd_mask(rng, n, m)


def binomial_walk(n: int, p: float, u: float) -> int:
    """Binomial(n, p) count of the uniform ``u`` by the inverse-CDF walk, as
    first written: the first m with ``u <= cum``, where ``cum`` adds the terms
    from (1-p)^n on, each the last times ``p/(1-p) * (n-m+1) / m``; n when
    there is none.  For 0 < p < 1 with (1-p)^n above 0.
    """
    c = math.exp(n * math.log1p(-p))
    ratio = p / (1.0 - p)
    cum = c
    m = 0
    while u > cum and m < n:
        if not c:  # every later term is 0 too, so the walk runs on to n
            return n
        m += 1
        c *= ratio * (n - m + 1) / m
        cum += c
    return m


def floyd_reference(rng, n: int, m: int) -> tuple[set[int], int]:
    """Floyd's sampler on a set, as first written; also counts colliding draws."""
    chosen: set[int] = set()
    collisions = 0
    for j in range(n - m, n):
        t = draw_index(rng, j + 1)
        if t in chosen:
            chosen.add(j)
            collisions += 1
        else:
            chosen.add(t)
    return chosen, collisions


def snapshot(pop: Population) -> Population:
    """An independent copy of ``pop``, which ``ga_step`` on ``pop`` leaves as it is."""
    return replace(pop)


def check_population(pop: Population, n: int, k: int) -> None:
    """Verify the fitness cache, the minimum cache and that members fit in ``n`` bits."""
    for g, f in zip(pop.members, pop.fitnesses):
        if g >> n:
            raise IntegrityError(f"member {g:#x} has bits beyond position {n - 1}")
        if jump_fitness(g, n, k) != f:
            raise IntegrityError(f"cached fitness {f} wrong for {g}")
    low = min(pop.fitnesses)
    if pop.low != low:
        raise IntegrityError(f"cached minimum {pop.low} != {low}")
    tied = pop.fitnesses.count(low)
    if pop.tied != tied:
        raise IntegrityError(f"cached tie count {pop.tied} != {tied} members at {low}")


def series_rows(dr: DistanceSeriesRun) -> tuple[tuple[int, tuple[float, ...]], ...]:
    """One ``(iteration, frequencies)`` per row of ``dr``, each stretch's tuple
    object repeated over its rows."""
    return tuple((t, freqs) for times, freqs in dr.runs for t in times)


@dataclass(frozen=True)
class DriftEstimate:
    """Unconditioned single-step drift of a species size."""

    y: int
    mean: float
    stderr: float
    trials: int
    increases: int
    decreases: int


def estimate_unconditioned_drift(
    params: GaParams,
    population: Population,
    species: int,
    trials: int,
    rng: RandomStream,
) -> DriftEstimate:
    """Mean one-step size change of ``species`` over all event classes."""
    _, _, ups, downs = _count_moves(params, population, species, None, trials, rng)
    mean = (ups - downs) / trials
    second_moment = (ups + downs) / trials
    stderr = math.sqrt(max(second_moment - mean * mean, 0.0) / trials)
    y = population.members.count(species)
    return DriftEstimate(y, mean, stderr, trials, ups, downs)
