"""Steady-state (mu+1) GA engine with per-iteration event classification.

One iteration creates a single offspring -- either by uniform crossover of two
uniformly chosen parents (with replacement) followed by standard bit mutation,
or by mutation of one uniformly chosen parent -- and then removes one
lowest-fitness member of the extended (mu+1) multiset, breaking ties uniformly
at random.  Runtime is counted in fitness evaluations: mu for initialization
plus one per iteration; the optimum counts as evaluated the moment it is
created as an offspring.

:func:`ga_step` takes one iteration.  :func:`steps` chains it and is the one
loop through which every runner steps a population forward; :func:`run` is
that loop until the optimum or a stop condition of a :class:`StopCondition`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from itertools import count

from .core import (
    GaParams,
    Genotype,
    RandomStream,
    _floyd_mask,
    check_at_least,
    jump_fitness,
)


class EventClass(Enum):
    """How an iteration produced its offspring.

    CROSSOVER_CLOSE    crossover with parents at Hamming distance <= 2
    CROSSOVER_DISTANT  crossover with parents further apart (>= 4 when the
                       population sits on the plateau, where distances are even)
    MUTATION_ONLY      no crossover, single mutated parent
    """

    CROSSOVER_CLOSE = "crossover_close"
    CROSSOVER_DISTANT = "crossover_distant"
    MUTATION_ONLY = "mutation_only"


_CLOSE = EventClass.CROSSOVER_CLOSE
_DISTANT = EventClass.CROSSOVER_DISTANT
_MUTATION = EventClass.MUTATION_ONLY


@dataclass(slots=True)
class Population:
    """Multiset of genotypes with cached fitness values.

    ``members`` and ``fitnesses`` are parallel tuples; ``generation`` counts
    applied iterations.  Member order carries no meaning beyond indexing
    within a single step.  Treated as immutable: nothing assigns to a
    population after construction, and :func:`ga_step` returns a new one.
    The class is not frozen only because frozen construction is slow.

    ``low`` and ``tied`` cache the minimum fitness and the number of members
    at it, so that :func:`ga_step` picks the removed member without scanning
    all mu fitnesses.  The invariant is ``low == min(fitnesses)`` and
    ``tied == fitnesses.count(low)``; both are derived, so they take no part
    in ``==`` or ``repr``, and are computed from ``fitnesses`` when not passed.
    """

    members: tuple[Genotype, ...]
    fitnesses: tuple[int, ...]
    generation: int = 0
    low: int | None = field(default=None, compare=False, repr=False)
    tied: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        if self.low is None:
            fits = self.fitnesses
            self.low = low = min(fits)
            self.tied = fits.count(low)


class IntegrityError(Exception):
    """Cached or tracked state (population caches, diversity trackers) disagrees with the population."""


def check_population(pop: Population, k: int) -> None:
    """Verify the fitness cache, the minimum cache and shared dimension (test/debug helper)."""
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


@dataclass(slots=True)
class StepTrace:
    """Record of one iteration, sufficient to replay population deltas.

    ``removed_index`` indexes the extended multiset: values ``0..mu-1`` name
    pre-step members, value ``mu`` means the offspring itself was removed (so
    the population multiset is unchanged).  ``removed_genotype`` is the
    genotype that left the extended multiset.  Treated as immutable, like
    :class:`Population`, but not frozen.
    """

    t: int
    event: EventClass
    parent_indices: tuple[int, ...]
    offspring: Genotype
    offspring_fitness: int
    removed_index: int
    removed_genotype: Genotype
    optimum_created: bool


@dataclass(frozen=True)
class StopCondition:
    """Run termination beyond the optimum, at which every run stops (including
    when the initial population holds it).

    ``full_plateau`` also stops once every member has fitness at least n
    (plateau or optimum), ``max_iterations`` caps the iteration count
    (reaching it flags non-convergence, not an error).
    """

    full_plateau: bool = False
    max_iterations: int | None = None

    def __post_init__(self):
        check_at_least(0, max_iterations=self.max_iterations)


@dataclass
class RunResult:
    population: Population
    iterations: int
    evaluations: int
    stop_reason: str


def init_uniform(params: GaParams, rng: RandomStream) -> Population:
    """mu genotypes drawn uniformly from {0,1}^n (one mask draw per member, in order)."""
    members = tuple(Genotype(rng.random_bits(params.n), params.n) for _ in range(params.mu))
    fits = tuple(jump_fitness(g, params.k) for g in members)
    return Population(members, fits, 0)


def init_monomorphic_plateau(params: GaParams, rng: RandomStream) -> Population:
    """mu copies of one plateau point drawn uniformly among strings with exactly k zeros."""
    g = Genotype(((1 << params.n) - 1) ^ _floyd_mask(rng, params.n, params.k), params.n)
    f = jump_fitness(g, params.k)
    return Population((g,) * params.mu, (f,) * params.mu, 0)


def ga_step(pop: Population, params: GaParams, rng: RandomStream) -> tuple[Population, StepTrace]:
    """Advance one iteration; returns a new population and its trace.

    ``pop`` itself is never modified.  Scalar draws happen in a fixed order so
    that traces replay exactly:
    (1) crossover coin ``u < p_c`` with ``u`` uniform on [0, 1),
    (2) parent index draws (two with crossover, else one; with replacement),
    (3) crossover mask bits, ceil(n/53) words (crossover only; equal parents
        draw them and leave them unused, as their child is the parent),
    (4) mutation flip count, then flip positions (ascending Floyd draws),
    (5) removal tie-break index, drawn only when two or more candidates tie
        at the minimum fitness of the extended multiset.  The candidates are
        ordered with the offspring (index mu) first when it ties, then the
        tied members in ascending index; the draw picks a position in that
        order.

    The step is one fused kernel on packed ints.  It makes the draws, and
    returns the results, of its reference operators ``RandomStream.index``,
    ``uniform_crossover``, ``standard_bit_mutation`` and ``jump_fitness``.
    Every step of a run runs ``params.mutation_walk`` inline, or every one
    calls ``RandomStream.binomial`` (p_m = 1, or (1-p_m)^n underflows).

    The minimum cache carries over: ``low`` and ``tied`` are read from ``pop``
    and passed to the new population.  They are unchanged when the offspring
    is removed or replaces a member at ``low`` with fitness ``low``.  When a
    fitter offspring replaces one, ``tied`` drops by one, and only when it
    reaches 0 are the minimum and its count recomputed from the new fitnesses.
    """
    mu = params.mu
    n = params.n
    members = pop.members
    draw = rng._next
    # Each index is RandomStream.index inline: int(u * bound), clamped below bound.
    crossover = draw() < params.p_c
    i = int(draw() * mu)
    i = i if i < mu else mu - 1
    bits = members[i].bits
    if crossover:
        j = int(draw() * mu)
        j = j if j < mu else mu - 1
        parents = (i, j)
        b = members[j].bits
        diff = bits ^ b
        if diff:
            mask = 0
            for shift in range(0, n, 53):
                mask |= int(draw() * 2.0**53) << shift  # RandomStream.random_bits's words
            bits = b ^ (diff & mask)  # parent i's bit where the mask is set
        else:
            for _ in range(0, n, 53):
                draw()
        event = _CLOSE if diff.bit_count() <= 2 else _DISTANT
    else:
        parents = (i,)
        event = _MUTATION
    c, ratio = params.mutation_walk
    if c:  # RandomStream.binomial's walk
        u = draw()
        cum = c
        m = 0
        while u > cum and m < n:
            m += 1
            c *= ratio * (n - m + 1) / m
            cum += c
    else:
        m = rng.binomial(n, params.p_m)
    if m == n:
        bits ^= (1 << n) - 1
    elif m:
        bits ^= _floyd_mask(rng, n, m)
    child = tuple.__new__(Genotype, (bits, n))
    ones = bits.bit_count()
    k = params.k
    child_fit = k + ones if ones == n or ones <= n - k else n - ones

    # Worst of the extended multiset; the offspring participates as index mu.
    fits = pop.fitnesses
    low = pop.low
    tied = pop.tied
    if child_fit < low:
        removed = mu
    else:
        child_ties = child_fit == low
        size = tied + child_ties
        pos = int(draw() * size) if size > 1 else 0
        pos = pos if pos < size else size - 1
        if child_ties:
            pos -= 1  # position 0 is the offspring
        if pos < 0:
            removed = mu
        elif tied == mu:
            removed = pos  # every member ties, so the rank is the index
        else:
            removed = fits.index(low)  # walk to the pos-th tied member
            for _ in range(pos):
                removed = fits.index(low, removed + 1)

    t = pop.generation + 1
    if removed == mu:
        removed_genotype = child
        new_pop = Population(members, fits, t, low, tied)
    else:
        # The removed member sits at ``low``, so a child at ``low`` leaves the
        # fitnesses, and the cache, as they were.
        removed_genotype = members[removed]
        new_members = list(members)
        new_members[removed] = child
        if child_fit != low:
            new_fits = list(fits)
            new_fits[removed] = child_fit
            fits = tuple(new_fits)
            tied -= 1
            if not tied:
                low = min(fits)
                tied = fits.count(low)
        new_pop = Population(tuple(new_members), fits, t, low, tied)
    # Positional, in field order: keyword construction costs measurably more per step.
    optimum = child_fit == n + k
    return new_pop, StepTrace(t, event, parents, child, child_fit, removed, removed_genotype, optimum)


def steps(
    pop: Population, params: GaParams, rng: RandomStream, limit: int | None = None
) -> Iterator[tuple[int, Population, StepTrace]]:
    """Chain :func:`ga_step` from ``pop``, yielding ``(t, population, trace)``
    for t = 1 to ``limit`` (without end when None), where ``population`` is the
    state after step t.  Draws are those of ``ga_step`` called by hand on the
    same stream, taken only when the next item is asked for.
    """
    for t in count(1) if limit is None else range(1, limit + 1):
        pop, trace = ga_step(pop, params, rng)
        yield t, pop, trace


def run(pop: Population, params: GaParams, stop: StopCondition, rng: RandomStream) -> RunResult:
    """Step through :func:`steps` until the optimum or a condition of ``stop``
    (after 0 iterations when ``pop`` already meets one); evaluations are mu +
    iterations."""
    if params.optimum_fitness in pop.fitnesses:
        return RunResult(pop, 0, params.mu, "optimum_found")
    if stop.full_plateau and pop.low >= params.n:
        return RunResult(pop, 0, params.mu, "full_plateau")
    t = 0
    for t, pop, trace in steps(pop, params, rng, stop.max_iterations):
        if trace.optimum_created:
            return RunResult(pop, t, params.mu + t, "optimum_found")
        if stop.full_plateau and pop.low >= params.n:
            return RunResult(pop, t, params.mu + t, "full_plateau")
    return RunResult(pop, t, params.mu + t, "max_iterations")
