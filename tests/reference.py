"""Reference operators that the tests hold the package's fused kernel to.

``ga_step`` runs each operator inline on packed ints.  These are the same
operators written one at a time, with the same draws: ``manual_step`` and the
twin-stream tests chain them draw for draw against the kernel, and the
distribution tests check their law.  ``check_population`` recomputes a
population's caches from its members, and ``floyd_reference`` is Floyd's
sampler on a set.
"""

from __future__ import annotations

from jumpga import Genotype, IntegrityError, Population, RandomStream, jump_fitness
from jumpga.core import _floyd_mask


def hamming_distance(a: Genotype, b: Genotype) -> int:
    """Number of differing positions."""
    if a.n != b.n:
        raise ValueError(f"genotype length mismatch: {a.n} != {b.n}")
    return (a.bits ^ b.bits).bit_count()


def uniform_crossover(a: Genotype, b: Genotype, rng: RandomStream) -> Genotype:
    """Each position independently takes ``a``'s bit or ``b``'s bit with equal probability."""
    if a.n != b.n:
        raise ValueError(f"genotype length mismatch: {a.n} != {b.n}")
    mask = rng.random_bits(a.n)
    return Genotype((a.bits & mask) | (b.bits & ~mask), a.n)


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
        return Genotype(g.bits ^ ((1 << n) - 1), n)
    return Genotype(g.bits ^ _floyd_mask(rng, n, m), n)


def floyd_reference(rng, n: int, m: int) -> tuple[set[int], int]:
    """Floyd's sampler on a set, as first written; also counts colliding draws."""
    chosen: set[int] = set()
    collisions = 0
    for j in range(n - m, n):
        t = rng.index(j + 1)
        if t in chosen:
            chosen.add(j)
            collisions += 1
        else:
            chosen.add(t)
    return chosen, collisions


def check_population(pop: Population, k: int) -> None:
    """Verify the fitness cache, the minimum cache and shared dimension."""
    n = pop.members[0].n
    for g, f in zip(pop.members, pop.fitnesses):
        if g.n != n:
            raise IntegrityError(f"mixed genotype dimensions: {g.n} != {n}")
        if jump_fitness(g, k) != f:
            raise IntegrityError(f"cached fitness {f} wrong for {g}")
    low = min(pop.fitnesses)
    if pop.low != low:
        raise IntegrityError(f"cached minimum {pop.low} != {low}")
    tied = pop.fitnesses.count(low)
    if pop.tied != tied:
        raise IntegrityError(f"cached tie count {pop.tied} != {tied} members at {low}")
