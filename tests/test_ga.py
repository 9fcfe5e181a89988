"""Steady-state GA engine: initializers, single steps, runs, and replay contracts."""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import sys
from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from reference import (
    Genotype,
    binomial_walk,
    check_population,
    draw_index,
    hamming_distance,
    snapshot,
    standard_bit_mutation,
    uniform_crossover,
)

from jumpga import ga
from jumpga import (
    EventClass,
    GaParams,
    IntegrityError,
    Population,
    RandomStream,
    StepTrace,
    StopCondition,
    estimate_transition,
    ga_step,
    init_monomorphic_plateau,
    init_uniform,
    jump_fitness,
    make_rng,
    run,
    steps,
    two_species_population,
)
from jumpga.core import _no_flip


def population_of(params: GaParams, *bits: int) -> Population:
    return Population(bits, tuple(jump_fitness(b, params.n, params.k) for b in bits))


def multiset(pop: Population) -> Counter:
    return Counter(pop.members)


# ---------------------------------------------------------------------------
# initializers


def test_init_uniform_is_deterministic_and_unbiased():
    p = GaParams(n=100, k=5, mu=50, p_c=0.5, chi=1.0, seed=0)
    assert init_uniform(p, make_rng(3, 0)) == init_uniform(p, make_rng(3, 0))
    total = 0
    for seed in range(100):
        pop = init_uniform(p, make_rng(seed, 0))
        assert len(pop.members) == 50
        assert pop.fitnesses == [jump_fitness(g, p.n, p.k) for g in pop.members]
        total += sum(g.bit_count() for g in pop.members)
    mean = total / (100 * 50)
    sigma_mean = math.sqrt(100 / 4) / math.sqrt(100 * 50)
    assert abs(mean - 50.0) <= 3 * sigma_mean


def test_init_monomorphic_plateau_is_one_species_at_plateau_fitness():
    p = GaParams(n=20, k=4, mu=7, p_c=0.5, chi=1.0, seed=5)
    pop = init_monomorphic_plateau(p, make_rng(5, 0))
    assert Counter(pop.members) == {pop.members[0]: 7}
    assert all(f == 20 for f in pop.fitnesses)
    assert all(g.bit_count() == 16 for g in pop.members)


def test_init_monomorphic_plateau_is_uniform_over_plateau_strings():
    # n=6, k=2: 15 possible zero-pair patterns, each should appear with
    # frequency 1/15 over 10^4 seeds.
    counts = Counter()
    for seed in range(10_000):
        p = GaParams(n=6, k=2, mu=3, p_c=0.5, chi=1.0, seed=seed)
        pop = init_monomorphic_plateau(p, make_rng(seed, 0))
        counts[pop.members[0]] += 1
    assert len(counts) == 15
    sigma = math.sqrt((1 / 15) * (14 / 15) / 10_000)
    for c in counts.values():
        assert abs(c / 10_000 - 1 / 15) <= 3 * sigma


# ---------------------------------------------------------------------------
# event classification


def test_step_classifies_its_event_by_parent_count_and_distance():
    # Plateau members with parent pairs at distance 0 (a parent with itself),
    # 2 (a, b) and 4 (a, c and b, c): a crossover is close exactly when its
    # parents are at most 2 apart, and one parent means mutation only.  Every
    # step starts from a copy of the same population.
    params = GaParams(n=12, k=3, mu=3, p_c=0.5, chi=1.0, seed=5)
    pop = population_of(params, *(0xFFF ^ zeros for zeros in (0b000111, 0b001011, 0b110001)))
    a, b, c = pop.members
    assert [hamming_distance(x, y) for x, y in ((a, b), (a, c), (b, c))] == [2, 4, 4]
    rng = make_rng(5, 1)
    seen = Counter()
    for _ in range(400):
        _, trace = ga_step(snapshot(pop), params, rng)
        parents = [pop.members[i] for i in trace.parent_indices]
        assert (trace.event is EventClass.MUTATION_ONLY) == (len(parents) == 1)
        if len(parents) == 2:
            d = hamming_distance(*parents)
            assert (trace.event is EventClass.CROSSOVER_CLOSE) == (d <= 2)
            seen[d] += 1
        else:
            seen["one parent"] += 1
    assert set(seen) == {0, 2, 4, "one parent"}, dict(seen)


# ---------------------------------------------------------------------------
# single-step semantics


def manual_step(pop: Population, params: GaParams, rng) -> tuple[Population, dict]:
    """Mirror of the engine's documented draw order, written independently.

    Draws: crossover coin; parent index(es); crossover mask; mutation count
    and positions; a removal tie-break index only when two or more members of
    the extended multiset share the minimum fitness.
    """
    mu = params.mu
    if rng.uniform() < params.p_c:
        i, j = draw_index(rng, mu), draw_index(rng, mu)
        parents = (i, j)
        child = uniform_crossover(pop.members[i], pop.members[j], params.n, rng)
        child = standard_bit_mutation(child, params.n, params.p_m, rng)
    else:
        i = draw_index(rng, mu)
        parents = (i,)
        child = standard_bit_mutation(pop.members[i], params.n, params.p_m, rng)
    cf = jump_fitness(child, params.n, params.k)
    low, ties = cf, [mu]
    for r in range(mu):
        f = pop.fitnesses[r]
        if f < low:
            low, ties = f, [r]
        elif f == low:
            ties.append(r)
    removed = ties[0] if len(ties) == 1 else ties[draw_index(rng, len(ties))]
    members, fits = list(pop.members), list(pop.fitnesses)
    if removed < mu:
        members[removed], fits[removed] = child, cf
    new = Population(members, fits)
    return new, dict(parents=parents, offspring=child, removed=removed)


def chain_ga_step(pop: Population, params: GaParams, rng, count: int):
    """``steps`` written as ``ga_step`` chained by hand on a copy of ``pop``."""
    pop = snapshot(pop)
    for t in range(1, count + 1):
        pop, trace = ga_step(pop, params, rng)
        yield t, pop, trace


def with_drivers(cells: list) -> list:
    """Each cell driven by ``chain_ga_step`` (under its own id) and by ``steps``
    (its id plus ``-steps``)."""
    return [
        pytest.param(*cell.values, drive, id=cell.id + suffix)
        for cell in cells
        for drive, suffix in ((chain_ga_step, ""), (steps, "-steps"))
    ]


def removal_branch(fits: list[int], child_fit: int, removed: int) -> str:
    """Which case of the removal rule a step took, from its pre-step fitnesses.

    The candidates are the offspring (index mu) first when it ties the
    minimum, then the members at the minimum in ascending index.
    """
    mu = len(fits)
    low = min(fits)
    if child_fit < low:
        return "child_strictly_worst"
    candidates = ([mu] if child_fit == low else []) + [r for r in range(mu) if fits[r] == low]
    if len(candidates) == 1:
        return "unique_minimum" if child_fit > low else "child_sole_tie"
    if len(candidates) - (child_fit == low) == mu:
        return "all_tie_child_ties" if child_fit == low else "all_tie_child_better"
    return "partial_tie_later" if candidates.index(removed) > 0 else "partial_tie_first"


# Each cell names the case of the removal rule it must hit at least once; the
# ids of the first four cells are their n-k-mu-p_c values.  The last three
# reach the kernel's edge paths: chi = n flips every bit after drawing its
# count, (1-p_m)^n underflows at n = 1000, chi = 600 (a table that starts
# with -1.0 entries), and equal plateau parents at n = 120 draw and discard a
# three-word crossover mask.  The three ``mask-`` cells sit at the mask's word
# boundaries: n = 53 is one word (no shifts), n = 54 puts one position in a
# second word, and n = 106 is two full words; from a monomorphic plateau at
# p_c = 1 each crosses both equal and differing parents.
DRAW_ORDER_CELLS = [
    pytest.param(2, 1, 2, 0.5, 1.0, init_uniform, 200, "all_tie_child_ties", id="2-1-2-0.5"),
    pytest.param(12, 3, 5, 0.7, 1.0, init_uniform, 200, "unique_minimum", id="12-3-5-0.7"),
    pytest.param(20, 2, 8, 0.0, 1.0, init_uniform, 200, "partial_tie_later", id="20-2-8-0.0"),
    pytest.param(16, 4, 6, 1.0, 1.0, init_uniform, 200, "partial_tie_later", id="16-4-6-1.0"),
    pytest.param(60, 3, 64, 0.5, 1.0, init_monomorphic_plateau, 200, "all_tie_child_ties", id="plateau-mu64"),
    pytest.param(8, 2, 4, 1.0, 1.0, init_monomorphic_plateau, 200, "all_tie_child_better", id="plateau-optimum"),
    pytest.param(30, 3, 16, 0.5, 1.0, init_uniform, 1000, "partial_tie_later", id="uniform-mu16"),
    pytest.param(60, 3, 8, 0.5, 1.0, init_uniform, 200, "unique_minimum", id="uniform-distinct"),
    pytest.param(12, 2, 4, 0.0, 1.0, init_monomorphic_plateau, 200, "child_strictly_worst", id="plateau-gap-child"),
    pytest.param(10, 2, 6, 0.5, 10.0, init_uniform, 200, "child_strictly_worst", id="chi-n-flips-all"),
    pytest.param(1000, 3, 4, 0.5, 600.0, init_uniform, 100, "unique_minimum", id="binomial-underflow"),
    pytest.param(120, 3, 8, 1.0, 1.0, init_monomorphic_plateau, 200, "all_tie_child_ties", id="plateau-three-words"),
    pytest.param(53, 3, 4, 1.0, 1.0, init_monomorphic_plateau, 200, "all_tie_child_ties", id="mask-one-word"),
    pytest.param(54, 3, 4, 1.0, 1.0, init_monomorphic_plateau, 400, "all_tie_child_ties", id="mask-second-word-one-bit"),
    pytest.param(106, 3, 4, 1.0, 1.0, init_monomorphic_plateau, 400, "all_tie_child_ties", id="mask-two-full-words"),
]


@pytest.mark.parametrize("n,k,mu,p_c,chi,start,count,branch,drive", with_drivers(DRAW_ORDER_CELLS))
def test_step_follows_documented_draw_order(n, k, mu, p_c, chi, start, count, branch, drive):
    params = GaParams(n=n, k=k, mu=mu, p_c=p_c, chi=chi, seed=17)
    pop_b = start(params, make_rng(17, 0))
    rng_a = make_rng(17, 1)
    rng_b = make_rng(17, 1)
    branches = Counter()
    for _, pop_a, trace in drive(pop_b, params, rng_a, count):
        fits = pop_b.fitnesses
        pop_b, manual = manual_step(pop_b, params, rng_b)
        assert trace.parent_indices == manual["parents"]
        assert trace.offspring == manual["offspring"]
        assert trace.removed_index == manual["removed"]
        assert pop_a == pop_b
        child_fit = jump_fitness(trace.offspring, n, k)
        branches[removal_branch(fits, child_fit, trace.removed_index)] += 1
    assert branches[branch] >= 1, dict(branches)
    assert rng_a.uniform() == rng_b.uniform()


def test_draw_order_cells_cover_every_removal_branch():
    covered = {cell.values[-1] for cell in DRAW_ORDER_CELLS}
    assert covered >= {
        "child_strictly_worst",
        "unique_minimum",
        "all_tie_child_ties",
        "all_tie_child_better",
        "partial_tie_later",
    }


@pytest.mark.parametrize(
    "n,k,mu,p_c,chi,start,count,branch", [c for c in DRAW_ORDER_CELLS if c.id.startswith("mask-")]
)
def test_word_boundary_cells_cross_equal_and_differing_parents(n, k, mu, p_c, chi, start, count, branch):
    params = GaParams(n=n, k=k, mu=mu, p_c=p_c, chi=chi, seed=17)
    pop = snapshot(start(params, make_rng(17, 0)))
    rng = make_rng(17, 1)
    equal_parents = set()
    for _ in range(count):
        before = list(pop.members)
        _, trace = ga_step(pop, params, rng)
        i, j = trace.parent_indices
        equal_parents.add(before[i] == before[j])
    assert equal_parents == {True, False}


def check_equal_parent_step_across_a_refill(n: int, offset: int) -> None:
    """One equal-parent crossover step at n, its first draw ``offset`` uniforms
    before a block ends, against ``manual_step`` on a twin stream."""
    params = GaParams(n=n, k=3, mu=4, p_c=1.0, chi=1.0, seed=19)
    pop = init_monomorphic_plateau(params, make_rng(19, 0))
    rng, twin = make_rng(19, 1), make_rng(19, 1)
    for stream in (rng, twin):
        for _ in range(RandomStream.BLOCK - offset):
            stream.uniform()
    want, manual = manual_step(pop, params, twin)
    new, trace = ga_step(pop, params, rng)
    assert trace.event is EventClass.CROSSOVER_CLOSE
    assert trace.parent_indices == manual["parents"]
    assert trace.offspring == manual["offspring"]
    assert trace.removed_index == manual["removed"]
    assert new == want
    assert rng._pos == twin._pos
    assert rng.uniform() == twin.uniform()


@pytest.mark.parametrize("offset", [2, 3, 4, 5, 6, 7])
def test_equal_parent_step_matches_manual_step_across_a_refill(offset):
    # Coin, two indices, four unused mask words, then the flip count: started
    # at BLOCK - 2 the block refills at the second index, at BLOCK - 3 to
    # BLOCK - 6 inside the mask words that equal parents draw and discard.
    check_equal_parent_step_across_a_refill(200, offset)


@pytest.mark.parametrize("offset", [2, 3, 4, 5])
def test_equal_parent_two_word_step_matches_manual_step_across_a_refill(offset):
    # Coin, two indices, two unused mask words (the first unshifted, the
    # second at GaParams.mask_shifts' one shift), then the flip count: started
    # at BLOCK - 3 or BLOCK - 4 the block refills inside the mask words.
    check_equal_parent_step_across_a_refill(106, offset)


@pytest.mark.parametrize(
    "n,chi",
    [
        pytest.param(40, 1.0, id="n40-chi1"),
        pytest.param(12, 3.0, id="n12-chi3"),
        pytest.param(200, 0.5, id="n200-chi0.5"),
        pytest.param(10, 10.0, id="chi-n-flips-all"),
        pytest.param(1000, 600.0, id="binomial-underflow"),
    ],
)
def test_each_run_takes_one_mutation_path_fixed_by_its_params(monkeypatch, n, chi):
    # Fresh streams, so each run's first step is covered too: every setting,
    # chi = n and an underflowing (1-p_m)^n among them, bisects its table and
    # makes no RandomStream.binomial call.
    calls = []
    binomial = RandomStream.binomial

    def counted(self, n, p):
        calls.append((n, p))
        return binomial(self, n, p)

    monkeypatch.setattr(RandomStream, "binomial", counted)
    params = GaParams(n=n, k=3, mu=4, p_c=0.5, chi=chi, seed=23)
    pop = init_uniform(params, make_rng(23, 0))
    for stream in (1, 2, 3):
        for _ in steps(pop, params, make_rng(23, stream), 40):
            pass
    assert calls == []


def test_mutation_cdf_starts_at_the_no_flip_probability_and_follows_replace():
    for n in (2, 10, 100, 1000):
        for chi in (0.25, 1.0, 2.0, n / 2, n):
            params = GaParams(n=n, k=1, mu=2, p_c=0.5, chi=chi)
            cdf = params.mutation_cdf
            assert cdf and cdf[-1] == 1.0
            if _no_flip(n, chi / n) >= sys.float_info.min:
                assert cdf[0] == _no_flip(n, chi / n)  # bit for bit
            else:  # p_m = 1, or (1 - p_m)^n is not a normal double
                assert cdf[0] == -1.0
    params = GaParams(n=100, k=3, mu=4, p_c=0.5, chi=1.0)
    moved = replace(params, chi=2.0)
    assert moved.mutation_cdf[0] == _no_flip(100, 2.0 / 100)
    assert moved.mutation_cdf != params.mutation_cdf
    assert replace(moved, chi=1.0) == params  # the table is derived, not compared
    assert replace(params, chi=100.0).mutation_cdf == (-1.0,) * 100 + (1.0,)


def test_mask_shifts_are_derived_per_setting_and_follow_replace():
    for n in (2, 53, 54, 106, 107):
        assert GaParams(n=n, k=1, mu=2, p_c=0.5, chi=1.0).mask_shifts == tuple(range(53, n, 53))
    params = GaParams(n=106, k=3, mu=4, p_c=1.0, chi=1.0)
    assert replace(params, n=107).mask_shifts == (53, 106)
    assert replace(params, n=53).mask_shifts == ()
    with pytest.raises(TypeError):
        GaParams(n=106, k=3, mu=4, p_c=1.0, chi=1.0, mask_shifts=())
    assert "mask_shifts" not in repr(params)
    other = replace(params)
    object.__setattr__(other, "mask_shifts", ())  # derived: not compared, not hashed
    assert other == params and hash(other) == hash(params)


class ScriptedGenerator:
    """Stands in for a numpy generator: its uniforms are ``values``, then 0.5."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size):
        block, self.values = self.values[:size], self.values[size:]
        return np.array(block + [0.5] * (size - len(block)))


def scripted_stream(values) -> RandomStream:
    """A stream whose uniforms are ``values`` in order, then 0.5: it reaches
    draws that a seeded stream makes with negligible probability."""
    return RandomStream(ScriptedGenerator(values))


@pytest.mark.parametrize("n,chi", [(200, 100.0), (10**6, 500.0)])
def test_the_largest_uniform_flips_the_last_count_with_a_nonzero_term(n, chi):
    # The running sums saturate below 1.0: at n = 200 after the term of m = n,
    # at n = 10^6 before a zero term.  The table's last entry is 1.0, so the
    # largest uniform gets the table's last count, where the walk runs on to
    # n; at the last sum below 1.0 the two agree.
    params = GaParams(n=n, k=1, mu=2, p_c=0.0, chi=chi)
    cdf = params.mutation_cdf
    below_one = math.nextafter(1.0, 0.0)
    last = len(cdf) - 1
    assert cdf[-1] == 1.0 and cdf[-2] < below_one
    assert binomial_walk(n, params.p_m, below_one) == n
    assert (last == n) == (n == 200)
    for u, count in ((cdf[-2], binomial_walk(n, params.p_m, cdf[-2])), (below_one, last)):
        assert scripted_stream([u]).binomial(n, params.p_m) == count
        # Mutation only, from two all-zero members: coin, parent index, flip
        # count, flip positions (Floyd's draws, 0.5 each), then the tie-break.
        pop = Population([0, 0], [1, 1])
        _, trace = ga_step(pop, params, scripted_stream([0.5, 0.0, u]))
        assert trace.offspring.bit_count() == count


@pytest.mark.parametrize("n,chi", [(100, 1.0), (10**4, 744.0), (40, 40.0)])
def test_the_flip_count_is_the_bisection_at_the_first_two_entries(n, chi):
    # The kernel decides counts 0 and 1 from the table's first two entries
    # and bisects the rest.  The tables: an ordinary one, one that starts
    # with -1.0 entries ((1 - p_m)^n is subnormal) and the p_m = 1 table,
    # whose entries are all -1.0 but the last.
    params = GaParams(n=n, k=1, mu=2, p_c=0.0, chi=chi)
    cdf = params.mutation_cdf
    uniforms = [0.0, math.nextafter(1.0, 0.0)]
    for entry in cdf[:2]:
        uniforms += [entry, math.nextafter(entry, 1.0)]
    for u in uniforms:
        # Coin, parent index, flip count, then Floyd's draws and the tie-break.
        _, trace = ga_step(Population([0, 0], [1, 1]), params, scripted_stream([0.5, 0.0, u]))
        assert trace.offspring.bit_count() == bisect_left(cdf, u), u


def test_no_step_flips_every_bit_where_the_no_flip_term_is_subnormal(monkeypatch):
    # At n = 10^6, chi = 744, (1-p_m)^n is the smallest subnormal, 5e-324:
    # running sums started from it miss 1 by about 0.15, and a uniform above
    # them would flip every bit (50 of these 400 steps).  Floyd's positions
    # are stood in for by the m lowest bits after the same m draws, so a step
    # costs microseconds rather than 10^6-bit mask updates; the flip count is
    # what is under test.
    def low_bits(rng, n, m):
        for _ in range(m):
            rng.uniform()
        return (1 << m) - 1

    monkeypatch.setattr(ga, "_floyd_mask", low_bits)
    n = 10**6
    params = GaParams(n=n, k=1, mu=2, p_c=0.0, chi=744.0)
    rng = make_rng(1, 0)
    counts = [ga_step(Population([0, 0], [1, 1]), params, rng)[1].offspring.bit_count() for _ in range(400)]
    assert max(counts) < n
    assert abs(statistics.fmean(counts) - 744) <= 4 * math.sqrt(744 / 400)


def documented_draws(before: Population, trace: StepTrace, params: GaParams) -> int:
    """Uniforms a mutation-only step takes by the draw order of ``ga_step``: the
    coin, the parent index, the flip count, m Floyd positions unless m = n,
    and the tie-break when two or more of the extended multiset tie at the minimum."""
    m = (before.members[trace.parent_indices[0]] ^ trace.offspring).bit_count()
    child_fit = jump_fitness(trace.offspring, params.n, params.k)
    fits = before.fitnesses
    low = min(fits)
    ties = fits.count(low) + (child_fit == low)
    return 3 + (m if m < params.n else 0) + (child_fit >= low and ties > 1)


class CountingGenerator:
    """Wraps a numpy generator, counting the blocks a stream fetches from it."""

    def __init__(self, generator):
        self.generator = generator
        self.blocks = 0

    def random(self, size):
        self.blocks += 1
        return self.generator.random(size)

    def __getattr__(self, name):
        return getattr(self.generator, name)


@pytest.mark.parametrize(
    "n,chi", [pytest.param(1000, 1000.0, id="chi-n"), pytest.param(1000, 600.0, id="binomial-underflow")]
)
def test_mutation_steps_draw_only_whole_blocks_of_uniforms(n, chi):
    # The generator's state afterwards is that of a twin that made one
    # random(BLOCK) call per block fetched, and the uniforms drawn are the
    # documented draws of each step, summed.
    params = GaParams(n=n, k=3, mu=4, p_c=0.0, chi=chi, seed=29)
    pop = init_uniform(params, make_rng(29, 0))
    counting = CountingGenerator(make_rng(29, 1).generator)
    rng = RandomStream(counting)
    documented = 0
    for _ in range(100):
        before = snapshot(pop)
        _, trace = ga_step(pop, params, rng)
        documented += documented_draws(before, trace, params)
    assert (counting.blocks - 1) * RandomStream.BLOCK + rng._pos == documented
    twin = make_rng(29, 1).generator
    for _ in range(counting.blocks):
        twin.random(RandomStream.BLOCK)
    assert counting.generator.bit_generator.state == twin.bit_generator.state


# sha256 of 10^4-step trace streams: any change to a draw, a tie-break or a
# record field changes the digest.  The digests hash the text they were first
# taken on: each genotype is the repr of a (bits, n) ``Genotype`` pair, and
# the step number and the offspring's fitness, which records and populations
# once held, come from the ``t`` each drive yields and from ``jump_fitness``.
TRACE_PINS = [
    pytest.param(
        40, 3, 12, 0.5, init_uniform,
        "46e5b1173c6480ec6bdb459914bacc59dbe6545b43d16b093518daf219544ebb",
        id="n40-mu12-uniform",
    ),
    pytest.param(
        60, 3, 64, 0.2, init_uniform,
        "6024583d5dd1109aa7c169b2b2f1f78f9380b3f0ca15fd190866cb11312349cb",
        id="n60-mu64-uniform",
    ),
    pytest.param(
        100, 3, 16, 1.0, init_monomorphic_plateau,
        "e49e3ba49f99419d021cd3edd1bcbc926ad8b73c1e1340bc5ecf21cd0c05084a",
        id="n100-mu16-plateau",
    ),
    pytest.param(
        200, 3, 128, 0.5, init_monomorphic_plateau,
        "8438062d8e921e7d39982af37d522cd2de50d9fb1f0f8fd1d7ff792a90b4019f",
        id="n200-mu128-plateau",
    ),
]


@pytest.mark.parametrize("n,k,mu,p_c,start,digest,drive", with_drivers(TRACE_PINS))
def test_trace_stream_matches_pinned_digest(n, k, mu, p_c, start, digest, drive):
    # The start is left as it was, whichever way the steps are driven.
    params = GaParams(n=n, k=k, mu=mu, p_c=p_c, chi=1.0, seed=2023)
    start_pop = start(params, make_rng(2023, 0))
    before = snapshot(start_pop)
    h = hashlib.sha256()
    for t, pop, tr in drive(start_pop, params, make_rng(2023, 1), 10_000):
        fields = (
            t,
            tr.event.value,
            tr.parent_indices,
            Genotype(tr.offspring, n),
            jump_fitness(tr.offspring, n, k),
            tr.removed_index,
            Genotype(tr.removed_genotype, n),
            tr.optimum_created,
        )
        h.update(repr(fields).encode())
    members = tuple(Genotype(g, n) for g in pop.members)
    h.update(repr((members, tuple(pop.fitnesses), t)).encode())
    assert h.hexdigest() == digest
    assert start_pop == before


def test_step_leaves_its_input_population_unchanged():
    # ga_step writes its argument; steps, run and the estimators never write
    # their start.
    for start, p_c in ((init_uniform, 0.5), (init_monomorphic_plateau, 1.0)):
        params = GaParams(n=30, k=3, mu=16, p_c=p_c, chi=1.0, seed=8)
        pop = start(params, make_rng(8, 0))
        before = (tuple(pop.members), tuple(pop.fitnesses), pop.low, pop.tied)
        for _ in steps(pop, params, make_rng(8, 1), 300):
            pass
        res = run(pop, params, StopCondition(max_iterations=300), make_rng(8, 1))
        assert res.iterations > 0 and res.population is not pop
        assert (tuple(pop.members), tuple(pop.fitnesses), pop.low, pop.tied) == before
    params = GaParams(n=60, k=3, mu=8, p_c=1.0, chi=1.0, seed=9)
    pop, focal, _ = two_species_population(params, 5, 1, make_rng(9, 0))
    before = (tuple(pop.members), tuple(pop.fitnesses), pop.low, pop.tied)
    estimate_transition(params, pop, focal, EventClass.CROSSOVER_CLOSE, 500, make_rng(9, 1))
    assert (tuple(pop.members), tuple(pop.fitnesses), pop.low, pop.tied) == before


def test_a_population_owns_its_storage():
    # Construction copies what it is given: stepping a population in place
    # never writes its caller's lists, and one built from tuples steps too.
    params = GaParams(n=12, k=2, mu=4, p_c=0.5, chi=1.0, seed=3)
    start = init_uniform(params, make_rng(3, 0))
    members, fits = list(start.members), list(start.fitnesses)
    for given in ((members, fits), (tuple(members), tuple(fits))):
        pop = Population(*given)
        rng = make_rng(3, 1)
        replaced = discarded = 0
        for _ in range(200):
            new, trace = ga_step(pop, params, rng)
            assert new is pop
            if trace.removed_index == params.mu:
                discarded += 1
            elif trace.offspring != trace.removed_genotype:
                replaced += 1
        assert replaced and discarded
        assert (members, fits) == (list(start.members), list(start.fitnesses))
    before = snapshot(start)
    res = run(start, params, StopCondition(max_iterations=100), make_rng(3, 2))
    assert res.iterations > 0 and res.population is not start
    assert start == before and (start.low, start.tied) == (before.low, before.tied)


def test_a_population_rewrites_its_one_step_record():
    # The first step builds the record, every later one rewrites it; a copy of
    # the population starts without one, and a copy of the record keeps its
    # values across the next step.
    params = GaParams(n=12, k=2, mu=4, p_c=0.5, chi=1.0, seed=5)
    pop = init_uniform(params, make_rng(5, 0))
    assert pop.last is None
    rng = make_rng(5, 1)
    _, first = ga_step(pop, params, rng)
    assert first is pop.last
    kept, text = replace(first), repr(first)
    assert replace(pop).last is None
    for _ in range(48):
        _, trace = ga_step(pop, params, rng)
        assert trace is pop.last is first
    assert repr(kept) == text != repr(first)


def test_steps_yields_one_record_per_run():
    params = GaParams(n=30, k=3, mu=8, p_c=0.5, chi=1.0, seed=6)
    start = init_uniform(params, make_rng(6, 0))
    records = [trace for _, _, trace in steps(start, params, make_rng(6, 1), 300)]
    assert len(records) == 300 and all(trace is records[0] for trace in records)
    assert start.last is None  # the start is never stepped


def test_a_working_population_builds_its_step_record_once(monkeypatch):
    built = 0
    init = StepTrace.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(StepTrace, "__init__", counting)
    params = GaParams(n=40, k=3, mu=12, p_c=0.5, chi=1.0, seed=7)
    for start in (init_uniform, init_monomorphic_plateau):
        pop = start(params, make_rng(7, 0))
        built = 0
        for _ in steps(pop, params, make_rng(7, 1), 1000):
            pass
        assert built == 1
        built = 0
        rng = make_rng(7, 2)
        for _ in range(1000):
            ga_step(pop, params, rng)
        assert built == 1


def test_run_copies_its_start_once(monkeypatch):
    # Whether run steps or returns before its first step, it builds one
    # population, and that population is not its start.
    built = 0
    init = Population.__init__

    def counting(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    params = GaParams(n=40, k=3, mu=4, p_c=0.5, chi=1.0, seed=8)
    uniform = init_uniform(params, make_rng(8, 0))
    full = (1 << 40) - 1
    cases = [
        (uniform, StopCondition(max_iterations=100), "max_iterations", 100),
        (uniform, StopCondition(max_iterations=0), "max_iterations", 0),
        (population_of(params, full, full ^ 0b111, full ^ 1, 0), StopCondition(), "optimum_found", 0),
        (init_monomorphic_plateau(params, make_rng(8, 1)), StopCondition(full_plateau=True), "full_plateau", 0),
    ]
    monkeypatch.setattr(Population, "__init__", counting)
    for pop, stop, reason, iterations in cases:
        built = 0
        res = run(pop, params, stop, make_rng(8, 2))
        assert (res.stop_reason, res.iterations, built) == (reason, iterations, 1)
        assert res.population is not pop
        if not iterations:
            assert res.population == pop


def test_check_population_rejects_a_corrupted_minimum_cache():
    params = GaParams(n=12, k=2, mu=4, p_c=0.5, chi=1.0, seed=0)
    pop = population_of(params, 0x0FF, 0x3FF, 0x0FF, 0xFFF)
    assert (pop.low, pop.tied) == (10, 2)
    check_population(pop, params.n, params.k)
    for low, tied in ((11, 2), (10, 1), (4, 1)):
        bad = Population(pop.members, pop.fitnesses)
        bad.low, bad.tied = low, tied
        assert bad == pop  # the cache takes no part in equality
        with pytest.raises(IntegrityError):
            check_population(bad, params.n, params.k)


def test_minimum_cache_holds_after_every_chained_step():
    # A step recomputes the cache only when a fitter offspring replaces the
    # last member at the minimum; that branch must run from each start under
    # each driver.
    params = GaParams(n=12, k=2, mu=6, p_c=0.5, chi=1.0, seed=12)
    starts = {
        "uniform": lambda: init_uniform(params, make_rng(12, 0)),
        "plateau": lambda: init_monomorphic_plateau(params, make_rng(12, 0)),
        "two_species": lambda: two_species_population(params, 3, 1, make_rng(12, 0))[0],
    }
    recomputed = Counter()
    for drive in (chain_ga_step, steps):
        for name, start in starts.items():
            pop = start()
            check_population(pop, params.n, params.k)
            low, tied = pop.low, pop.tied
            for _, pop, trace in drive(pop, params, make_rng(12, 1), 500):
                child_fit = jump_fitness(trace.offspring, params.n, params.k)
                if tied == 1 and trace.removed_index < params.mu and child_fit > low:
                    recomputed[drive.__name__, name] += 1
                check_population(pop, params.n, params.k)
                low, tied = pop.low, pop.tied
    assert len(recomputed) == 2 * len(starts), dict(recomputed)


def test_step_discards_strictly_worst_offspring_without_touching_population():
    # From a plateau population with rate-0 crossover, an offspring that lands
    # in the fitness gap is strictly worst and must be removed on creation.
    params = GaParams(n=12, k=2, mu=4, p_c=0.0, chi=1.0, seed=0)
    pop = init_monomorphic_plateau(params, make_rng(0, 0))
    rng = make_rng(0, 1)
    seen_discard = False
    for _ in range(300):
        before = multiset(pop)
        pop, trace = ga_step(pop, params, rng)
        if trace.removed_index == params.mu:
            assert multiset(pop) == before
            assert trace.removed_genotype == trace.offspring
            if jump_fitness(trace.offspring, params.n, params.k) < min(pop.fitnesses):
                seen_discard = True
        if trace.optimum_created:
            break
    assert seen_discard


def test_step_with_negligible_mutation_keeps_monomorphic_population():
    params = GaParams(n=12, k=2, mu=4, p_c=1.0, chi=1e-12, seed=4)
    pop = init_monomorphic_plateau(params, make_rng(4, 0))
    start = pop.members[0]
    rng = make_rng(4, 1)
    for _ in range(50):
        pop, trace = ga_step(pop, params, rng)
        assert trace.event == EventClass.CROSSOVER_CLOSE
        assert trace.offspring == start
    assert len(Counter(pop.members)) == 1


def test_step_trace_bookkeeping_matches_population_change():
    params = GaParams(n=14, k=3, mu=6, p_c=0.5, chi=1.0, seed=23)
    pop = init_uniform(params, make_rng(23, 0))
    rng = make_rng(23, 1)
    for _ in range(400):
        before = multiset(pop)
        prev = snapshot(pop)
        pop, trace = ga_step(pop, params, rng)
        assert len(pop.members) == params.mu
        child_fit = jump_fitness(trace.offspring, params.n, params.k)
        assert trace.optimum_created == (child_fit == params.n + params.k)
        after = multiset(pop)
        if trace.removed_index == params.mu:
            assert after == before
        else:
            assert trace.removed_genotype == prev.members[trace.removed_index]
            assert pop.fitnesses[trace.removed_index] == child_fit
            expected = Counter(before)
            expected[trace.offspring] += 1
            expected[trace.removed_genotype] -= 1
            assert after == +expected
        if trace.optimum_created:
            break


def test_trajectory_invariants_hold_over_long_runs():
    params = GaParams(n=12, k=3, mu=5, p_c=0.5, chi=1.0, seed=31)
    pop = init_uniform(params, make_rng(31, 0))
    rng = make_rng(31, 1)
    focal = pop.members[0]
    best = max(pop.fitnesses)
    all_plateau_seen = False
    for t in range(1, 2001):
        y_before = sum(g == focal for g in pop.members)
        pop, trace = ga_step(pop, params, rng)
        new_best = max(pop.fitnesses)
        assert new_best >= best  # elitism: best fitness never decreases
        best = new_best
        y_after = sum(g == focal for g in pop.members)
        assert abs(y_after - y_before) <= 1  # one replacement per iteration
        if all_plateau_seen:
            assert min(pop.fitnesses) >= params.n
        elif min(pop.fitnesses) >= params.n:
            all_plateau_seen = True
        if t % 200 == 0:
            check_population(pop, params.n, params.k)
        if trace.optimum_created:
            break


def test_plateau_members_sit_at_even_pairwise_distances():
    params = GaParams(n=30, k=2, mu=6, p_c=1.0, chi=1.0, seed=2)
    pop = init_monomorphic_plateau(params, make_rng(2, 0))
    rng = make_rng(2, 1)
    for _ in range(300):
        pop, trace = ga_step(pop, params, rng)
        if trace.optimum_created:
            break
        plateau = [g for g, f in zip(pop.members, pop.fitnesses) if f == params.n]
        for i in range(len(plateau)):
            for j in range(i + 1, len(plateau)):
                assert hamming_distance(plateau[i], plateau[j]) % 2 == 0


# ---------------------------------------------------------------------------
# run loop


def test_run_stops_immediately_when_optimum_already_present():
    params = GaParams(n=8, k=2, mu=3, p_c=0.5, chi=1.0, seed=1)
    pop = population_of(params, 0xFF, 0x3F, 0x00)
    res = run(pop, params, StopCondition(), make_rng(1, 0))
    assert res.stop_reason == "optimum_found"
    assert res.iterations == 0
    assert res.evaluations == params.mu


def test_run_counts_initial_population_as_evaluated():
    for seed in range(5):
        params = GaParams(n=14, k=2, mu=4, p_c=0.5, chi=1.0, seed=seed)
        pop = init_uniform(params, make_rng(seed, 0))
        res = run(pop, params, StopCondition(max_iterations=100_000), make_rng(seed, 1))
        assert res.evaluations == params.mu + res.iterations


def test_run_full_plateau_stop():
    params = GaParams(n=14, k=3, mu=4, p_c=0.5, chi=1.0, seed=9)
    pop = init_uniform(params, make_rng(9, 0))
    res = run(
        pop, params, StopCondition(full_plateau=True, max_iterations=10**6), make_rng(9, 1)
    )
    assert res.stop_reason in ("full_plateau", "optimum_found")
    assert min(res.population.fitnesses) >= params.n
    # Already-plateau populations stop before any iteration.
    mono = init_monomorphic_plateau(params, make_rng(9, 2))
    res2 = run(mono, params, StopCondition(full_plateau=True), make_rng(9, 3))
    assert res2.stop_reason == "full_plateau"
    assert res2.iterations == 0


def test_run_iteration_cap():
    params = GaParams(n=40, k=3, mu=4, p_c=0.5, chi=1.0, seed=13)
    pop = init_uniform(params, make_rng(13, 0))
    res = run(pop, params, StopCondition(max_iterations=50), make_rng(13, 1))
    assert res.stop_reason == "max_iterations"
    assert res.iterations == 50
    assert res.evaluations == 54


def test_plateau_runtime_without_crossover_is_exactly_geometric():
    # With p_c = 0 every child of a plateau point is the optimum with
    # probability q = p_m^k (1 - p_m)^(n - k), and every other child is a
    # plateau point or worse, so the population stays on the plateau and the
    # iteration count is geometric with mean 1/q.
    params = GaParams(n=8, k=2, mu=5, p_c=0.0, chi=1.0, seed=8)
    q = params.p_m**params.k * (1 - params.p_m) ** (params.n - params.k)
    reps = 1000
    iterations = []
    for r in range(reps):
        rng = make_rng(params.seed, r)
        res = run(init_monomorphic_plateau(params, rng), params, StopCondition(), rng)
        assert res.stop_reason == "optimum_found"
        iterations.append(res.iterations)
    sigma = math.sqrt((1 - q) / q**2 / reps)
    z = (statistics.fmean(iterations) - 1 / q) / sigma
    assert abs(z) <= 3, (statistics.fmean(iterations), 1 / q, z)


def test_crossover_probability_boundaries_control_event_mix():
    base = dict(n=16, k=2, mu=5, chi=1.0, seed=6)
    for p_c, expected_parents in ((1.0, 2), (0.0, 1)):
        params = GaParams(p_c=p_c, **base)
        pop = init_uniform(params, make_rng(6, 0))
        rng = make_rng(6, 1)
        for _ in range(200):
            pop, trace = ga_step(pop, params, rng)
            assert len(trace.parent_indices) == expected_parents
            if p_c == 0.0:
                assert trace.event == EventClass.MUTATION_ONLY
            else:
                assert trace.event != EventClass.MUTATION_ONLY
            if trace.optimum_created:
                break


def test_runs_replay_identically_for_equal_seeds():
    params = GaParams(n=18, k=3, mu=6, p_c=0.5, chi=1.0, seed=77)

    def trajectory():
        pop = init_uniform(params, make_rng(77, 0))
        rng = make_rng(77, 1)
        out = []
        for _ in range(500):
            pop, trace = ga_step(pop, params, rng)
            out.append((trace.event, trace.parent_indices, trace.offspring, trace.removed_index))
            if trace.optimum_created:
                break
        return out

    assert trajectory() == trajectory()


def test_steps_chain_ga_step_on_the_same_stream():
    params = GaParams(n=30, k=3, mu=8, p_c=0.5, chi=1.0, seed=21)
    start = init_uniform(params, make_rng(21, 0))
    rng = make_rng(21, 1)
    assert list(steps(start, params, rng, 0)) == []
    assert rng.uniform() == make_rng(21, 1).uniform()  # nothing was drawn

    limit = 300
    rng = make_rng(21, 1)
    # A yielded population and trace live until the next item: keep a copy of each.
    got = [(t, snapshot(p), replace(tr)) for t, p, tr in steps(start, params, rng, limit)]
    by_hand = []
    pop, hand_rng = snapshot(start), make_rng(21, 1)
    for _ in range(limit):
        pop, trace = ga_step(pop, params, hand_rng)
        by_hand.append((snapshot(pop), replace(trace)))
    assert [t for t, _, _ in got] == list(range(1, limit + 1))
    assert [(p, tr) for _, p, tr in got] == by_hand
    assert rng.uniform() == hand_rng.uniform()

    # Without a limit the chain goes on: its 501st item is step 501.
    t, pop, _ = next(islice(steps(start, params, make_rng(21, 1)), 500, None))
    hand, hand_rng = snapshot(start), make_rng(21, 1)
    for _ in range(501):
        ga_step(hand, params, hand_rng)
    assert t == 501 and pop == hand


def test_small_instances_reach_the_optimum_from_every_seed():
    worst = 0
    for seed in range(100):
        params = GaParams(n=20, k=2, mu=8, p_c=0.5, chi=1.0, seed=seed)
        pop = init_uniform(params, make_rng(seed, 0))
        res = run(pop, params, StopCondition(max_iterations=10_000_000), make_rng(seed, 1))
        assert res.stop_reason == "optimum_found"
        worst = max(worst, res.iterations)
    assert worst < 100_000


# ---------------------------------------------------------------------------
# agreement with an independent reference implementation


def referee_largest_species(seed: int, n: int, k: int, mu: int, p_c: float, chi: float, steps: int) -> int:
    """Plain-list (mu+1) GA sharing no code or RNG with the package."""
    rnd = random.Random(seed)

    def fitness(x: list[int]) -> int:
        o = sum(x)
        return k + o if (o == n or o <= n - k) else n - o

    pop = [[rnd.randint(0, 1) for _ in range(n)] for _ in range(mu)]
    fits = [fitness(x) for x in pop]
    pm = chi / n
    for _ in range(steps):
        if rnd.random() < p_c:
            pa = pop[rnd.randrange(mu)]
            pb = pop[rnd.randrange(mu)]
            child = [pa[i] if rnd.random() < 0.5 else pb[i] for i in range(n)]
        else:
            child = list(pop[rnd.randrange(mu)])
        for i in range(n):
            if rnd.random() < pm:
                child[i] = 1 - child[i]
        cf = fitness(child)
        if cf == n + k:
            break
        ext = fits + [cf]
        low = min(ext)
        r = rnd.choice([i for i, f in enumerate(ext) if f == low])
        if r < mu:
            pop[r], fits[r] = child, cf
    return max(Counter(tuple(x) for x in pop).values())


def test_largest_species_distribution_matches_reference_implementation():
    n, k, mu, p_c, chi, steps, reps = 50, 3, 16, 0.5, 1.0, 800, 100
    package_vals = []
    for seed in range(reps):
        params = GaParams(n=n, k=k, mu=mu, p_c=p_c, chi=chi, seed=seed)
        pop = init_uniform(params, make_rng(seed, 0))
        rng = make_rng(seed, 1)
        for _ in range(steps):
            pop, trace = ga_step(pop, params, rng)
            if trace.optimum_created:
                break
        package_vals.append(max(Counter(pop.members).values()))
    referee_vals = [referee_largest_species(seed, n, k, mu, p_c, chi, steps) for seed in range(reps)]

    mean_p, mean_r = statistics.mean(package_vals), statistics.mean(referee_vals)
    se = math.sqrt(
        statistics.variance(package_vals) / reps + statistics.variance(referee_vals) / reps
    )
    assert abs(mean_p - mean_r) <= 3 * se

    tail_p = sum(v >= 12 for v in package_vals) / reps
    tail_r = sum(v >= 12 for v in referee_vals) / reps
    se_tail = math.sqrt(2 * 0.25 / reps)
    assert abs(tail_p - tail_r) <= 3 * se_tail
