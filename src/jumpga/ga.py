"""Steady-state (mu+1) GA engine with per-iteration event classification.

One iteration creates a single offspring -- either by uniform crossover of two
uniformly chosen parents (with replacement) followed by standard bit mutation,
or by mutation of one uniformly chosen parent -- and then removes one
lowest-fitness member of the extended (mu+1) multiset, breaking ties uniformly
at random.  Runtime is counted in fitness evaluations: mu for initialization
plus one per iteration; the optimum counts as evaluated the moment it is
created as an offspring.

:func:`ga_step` takes one iteration, in place.  :func:`steps` chains it and
is the one loop through which every runner steps a population forward;
:func:`run` is that loop until the optimum or a stop condition of a
:class:`StopCondition`.  ``ga_step`` writes the population it is given;
``steps``, ``run`` and every runner built on them copy their start once and
never write it.

A step builds no genotype, record or range: genotypes are packed ints (see
:mod:`jumpga.core`), each population keeps one :class:`StepTrace`, built by
its first step and rewritten in place by every later one, and what is fixed
for a setting (the flip-count table and the crossover mask's word shifts) is
built once, by :class:`~jumpga.core.GaParams`.  Steps are
counted once, by the ``t`` that :func:`steps` yields: neither a population
nor a record holds a step count.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import count
from math import floor

from .core import (
    GaParams,
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
    """Multiset of genotypes (packed ints) with cached fitness values.

    ``members`` and ``fitnesses`` are parallel lists that the population owns:
    construction copies whatever sequences it is given, so a population never
    shares a list with its caller, and ``dataclasses.replace(pop)`` is an
    independent copy.  Member order carries no meaning beyond indexing within
    a single step.  :func:`ga_step` advances a population in place.  Two
    populations are equal when their members and fitnesses are.

    ``low`` and ``tied`` cache the minimum fitness and the number of members
    at it, so that :func:`ga_step` picks the removed member without scanning
    all mu fitnesses.  The invariant is ``low == min(fitnesses)`` and
    ``tied == fitnesses.count(low)``; both are derived, so construction
    computes them from ``fitnesses`` and they take no part in ``==`` or
    ``repr``.

    ``last`` is the population's step record: None until its first
    :func:`ga_step`, which builds it; every later step rewrites it in place.
    It is not copied, so ``dataclasses.replace(pop)`` starts with none and
    never shares a record with ``pop``.
    """

    members: list[int]
    fitnesses: list[int]
    low: int = field(init=False, compare=False, repr=False)
    tied: int = field(init=False, compare=False, repr=False)
    last: StepTrace | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        self.members = list(self.members)
        self.fitnesses = fits = list(self.fitnesses)
        self.low = low = min(fits)
        self.tied = fits.count(low)


class IntegrityError(Exception):
    """A diversity tracker's state (or, in the tests, a population cache) disagrees with the population."""


@dataclass(slots=True)
class StepTrace:
    """Record of one iteration, sufficient to replay population deltas.

    It holds what the step decided: the event, the parent indices, the
    offspring and the member removed.  What follows from those is left to the
    reader: the step number is the ``t`` that :func:`steps` yields, and the
    offspring's fitness is ``jump_fitness(offspring, n, k)``.
    ``optimum_created`` is stored because every runner reads it on every
    step.
    ``removed_index`` indexes the extended multiset: values ``0..mu-1`` name
    pre-step members, value ``mu`` means the offspring itself was removed (so
    the population multiset is unchanged).  ``removed_genotype`` is the
    genotype that left the extended multiset.  A record is its population's
    ``last``, rewritten by the population's next step; keep one past that
    with ``dataclasses.replace(trace)``.
    """

    event: EventClass
    parent_indices: tuple[int, ...]
    offspring: int
    removed_index: int
    removed_genotype: int
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
    n = params.n
    members = [rng.random_bits(n) for _ in range(params.mu)]
    fits = [jump_fitness(g, n, params.k) for g in members]
    return Population(members, fits)


def init_monomorphic_plateau(params: GaParams, rng: RandomStream) -> Population:
    """mu copies of one plateau point drawn uniformly among strings with exactly k zeros."""
    n = params.n
    g = ((1 << n) - 1) ^ _floyd_mask(rng, n, params.k)
    f = jump_fitness(g, n, params.k)
    return Population([g] * params.mu, [f] * params.mu)


def ga_step(pop: Population, params: GaParams, rng: RandomStream) -> tuple[Population, StepTrace]:
    """Advance ``pop`` one iteration in place; returns ``(pop, trace)``, the
    population being the one passed in and the trace its record ``pop.last``,
    which the next step on ``pop`` rewrites.  Copy a population or a trace
    first (``dataclasses.replace``) to keep its state.  The step counts
    nothing: its caller numbers the steps, as :func:`steps` does.

    Scalar draws happen in a fixed order so that traces replay exactly:
    (1) crossover coin ``u < p_c`` with ``u`` uniform on [0, 1),
    (2) parent index draws (two with crossover, else one; with replacement),
    (3) crossover mask bits, ceil(n/53) words (crossover only): the first
        word unshifted, then one word at each shift of
        ``params.mask_shifts``; equal parents draw them and leave them
        unused, as their child is the parent,
    (4) mutation flip count m, one uniform at every chi, then m flip
        positions (ascending Floyd draws; none when m = n),
    (5) removal tie-break index, drawn only when two or more candidates tie
        at the minimum fitness of the extended multiset.  The candidates are
        ordered with the offspring (index mu) first when it ties, then the
        tied members in ascending index; the draw picks a position in that
        order.

    The step is one fused kernel on packed ints.  It makes the draws, and
    returns the results, of ``RandomStream.index`` and ``jump_fitness`` and of
    the reference operators ``uniform_crossover`` and ``standard_bit_mutation``
    in ``tests/reference.py``.
    Every index and mask word turns its uniform ``u`` into an integer as
    ``floor(u * bound)``, which equals ``int(u * bound)`` on [0, 1), with
    each index clamped below its bound.  The flip count is
    ``bisect_left(params.mutation_cdf, u)``, the count that
    ``RandomStream.binomial`` draws, taken as 0 or 1 when ``u`` is at most the
    table's first or second entry and bisected from entry 2 otherwise; a
    count of 1 flips its one Floyd position inline.

    The minimum cache carries over: ``low`` and ``tied`` are read from ``pop``
    and written back to it.  They are unchanged when the offspring is removed
    or replaces a member at ``low`` with fitness ``low``.  When a fitter
    offspring replaces one, ``tied`` drops by one, and only when it reaches 0
    are the minimum and its count recomputed from the new fitnesses.
    """
    mu = params.mu
    n = params.n
    members = pop.members
    draw = rng._next
    # Each index is RandomStream.index inline: floor(u * bound), which equals
    # int(u * bound) on [0, 1) and costs less, clamped below bound.
    crossover = draw() < params.p_c
    i = floor(draw() * mu)
    i = i if i < mu else mu - 1
    bits = members[i]
    if crossover:
        j = floor(draw() * mu)
        j = j if j < mu else mu - 1
        parents = (i, j)
        b = members[j]
        diff = bits ^ b
        if diff:
            mask = floor(draw() * 2.0**53)  # RandomStream.random_bits's words
            for shift in params.mask_shifts:
                mask |= floor(draw() * 2.0**53) << shift
            bits = b ^ (diff & mask)  # parent i's bit where the mask is set
        else:
            draw()
            for _ in params.mask_shifts:
                draw()
        event = _CLOSE if diff.bit_count() <= 2 else _DISTANT
    else:
        parents = (i,)
        event = _MUTATION
    # bisect_left(cdf, u) with its first two entries checked first: they hold
    # most counts at small chi, and the last entry is 1.0 > u, so a table of
    # one or two entries is never read past its end.
    cdf, u = params.mutation_cdf, draw()
    m = 0 if u <= cdf[0] else 1 if u <= cdf[1] else bisect_left(cdf, u, 2)
    if m == 1:
        t = floor(draw() * n)  # _floyd_mask's one draw for m = 1, and its clamp
        bits ^= 1 << (t if t < n else n - 1)
    elif m:
        bits ^= (1 << n) - 1 if m == n else _floyd_mask(rng, n, m)
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
        pos = floor(draw() * size) if size > 1 else 0
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

    if removed == mu:
        removed_genotype = bits
    else:
        # The removed member sits at ``low``, so a child at ``low`` leaves the
        # fitnesses, and the cache, as they were.
        removed_genotype = members[removed]
        members[removed] = bits
        if child_fit != low:
            fits[removed] = child_fit
            tied -= 1
            if not tied:
                pop.low = low = min(fits)
                tied = fits.count(low)
            pop.tied = tied
    optimum = child_fit == n + k
    trace = pop.last
    if trace is None:
        pop.last = trace = StepTrace(event, parents, bits, removed, removed_genotype, optimum)
    else:
        trace.event = event
        trace.parent_indices = parents
        trace.offspring = bits
        trace.removed_index = removed
        trace.removed_genotype = removed_genotype
        trace.optimum_created = optimum
    return pop, trace


def steps(
    pop: Population, params: GaParams, rng: RandomStream, limit: int | None = None
) -> Iterator[tuple[int, Population, StepTrace]]:
    """Chain :func:`ga_step` from ``pop``, yielding ``(t, population, trace)``
    for t = 1 to ``limit`` (without end when None), where ``population`` is the
    state after step t.  Draws are those of ``ga_step`` called by hand on the
    same stream, taken only when the next item is asked for.

    ``pop`` is never written: ``steps`` copies it once, on the first item, and
    every item yields that one copy, advanced in place, and its one record
    (the copy's ``last``), rewritten in place.  A yielded population and trace
    are therefore valid until the next item is asked for; keep either past
    that with ``dataclasses.replace``.
    """
    work = replace(pop)
    for t in count(1) if limit is None else range(1, limit + 1):
        _, trace = ga_step(work, params, rng)
        yield t, work, trace


def run(pop: Population, params: GaParams, stop: StopCondition, rng: RandomStream) -> RunResult:
    """Step through :func:`steps` until the optimum or a condition of ``stop``
    (after 0 iterations when ``pop`` already meets one); evaluations are mu +
    iterations.  ``pop`` is never written, and the population returned is
    never ``pop`` itself: it is the copy that ``steps`` advances, or a copy
    made here when no step is taken."""
    if params.optimum_fitness in pop.fitnesses:
        return RunResult(replace(pop), 0, params.mu, "optimum_found")
    if stop.full_plateau and pop.low >= params.n:
        return RunResult(replace(pop), 0, params.mu, "full_plateau")
    if stop.max_iterations == 0:
        return RunResult(replace(pop), 0, params.mu, "max_iterations")
    for t, work, trace in steps(pop, params, rng, stop.max_iterations):
        if trace.optimum_created:
            return RunResult(work, t, params.mu + t, "optimum_found")
        if stop.full_plateau and work.low >= params.n:
            return RunResult(work, t, params.mu + t, "full_plateau")
    return RunResult(work, t, params.mu + t, "max_iterations")
