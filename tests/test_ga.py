"""Steady-state GA engine: initializers, single steps, runs, and replay contracts."""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from collections import Counter
from dataclasses import replace
from itertools import islice

import pytest

from jumpga import (
    EventClass,
    GaParams,
    Genotype,
    IntegrityError,
    Population,
    RandomStream,
    StopCondition,
    estimate_transition,
    ga_step,
    hamming_distance,
    init_monomorphic_plateau,
    init_uniform,
    jump_fitness,
    make_rng,
    no_flip_probability,
    run,
    standard_bit_mutation,
    steps,
    two_species_population,
    uniform_crossover,
)
from jumpga.ga import check_population


def population_of(params: GaParams, *bits: int) -> Population:
    members = tuple(Genotype(b, params.n) for b in bits)
    return Population(members, tuple(jump_fitness(m, params.k) for m in members), 0)


def multiset(pop: Population) -> Counter:
    return Counter(g.bits for g in pop.members)


# ---------------------------------------------------------------------------
# initializers


def test_init_uniform_is_deterministic_and_unbiased():
    p = GaParams(n=100, k=5, mu=50, p_c=0.5, chi=1.0, seed=0)
    assert init_uniform(p, make_rng(3, 0)) == init_uniform(p, make_rng(3, 0))
    total = 0
    for seed in range(100):
        pop = init_uniform(p, make_rng(seed, 0))
        assert len(pop.members) == 50
        assert pop.fitnesses == tuple(jump_fitness(g, p.k) for g in pop.members)
        total += sum(g.bits.bit_count() for g in pop.members)
    mean = total / (100 * 50)
    sigma_mean = math.sqrt(100 / 4) / math.sqrt(100 * 50)
    assert abs(mean - 50.0) <= 3 * sigma_mean


def test_init_monomorphic_plateau_is_one_species_at_plateau_fitness():
    p = GaParams(n=20, k=4, mu=7, p_c=0.5, chi=1.0, seed=5)
    pop = init_monomorphic_plateau(p, make_rng(5, 0))
    assert Counter(pop.members) == {pop.members[0]: 7}
    assert all(f == 20 for f in pop.fitnesses)
    assert all(g.bits.bit_count() == 16 for g in pop.members)


def test_init_monomorphic_plateau_is_uniform_over_plateau_strings():
    # n=6, k=2: 15 possible zero-pair patterns, each should appear with
    # frequency 1/15 over 10^4 seeds.
    counts = Counter()
    for seed in range(10_000):
        p = GaParams(n=6, k=2, mu=3, p_c=0.5, chi=1.0, seed=seed)
        pop = init_monomorphic_plateau(p, make_rng(seed, 0))
        counts[pop.members[0].bits] += 1
    assert len(counts) == 15
    sigma = math.sqrt((1 / 15) * (14 / 15) / 10_000)
    for c in counts.values():
        assert abs(c / 10_000 - 1 / 15) <= 3 * sigma


# ---------------------------------------------------------------------------
# event classification


def test_step_classifies_its_event_by_parent_count_and_distance():
    # Plateau members with parent pairs at distance 0 (a parent with itself),
    # 2 (a, b) and 4 (a, c and b, c): a crossover is close exactly when its
    # parents are at most 2 apart, and one parent means mutation only.
    params = GaParams(n=12, k=3, mu=3, p_c=0.5, chi=1.0, seed=5)
    pop = population_of(params, *(0xFFF ^ zeros for zeros in (0b000111, 0b001011, 0b110001)))
    a, b, c = pop.members
    assert [hamming_distance(x, y) for x, y in ((a, b), (a, c), (b, c))] == [2, 4, 4]
    rng = make_rng(5, 1)
    seen = Counter()
    for _ in range(400):
        _, trace = ga_step(pop, params, rng)
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
        i, j = rng.index(mu), rng.index(mu)
        parents = (i, j)
        child = uniform_crossover(pop.members[i], pop.members[j], rng)
        child = standard_bit_mutation(child, params.p_m, rng)
    else:
        i = rng.index(mu)
        parents = (i,)
        child = standard_bit_mutation(pop.members[i], params.p_m, rng)
    cf = jump_fitness(child, params.k)
    low, ties = cf, [mu]
    for r in range(mu):
        f = pop.fitnesses[r]
        if f < low:
            low, ties = f, [r]
        elif f == low:
            ties.append(r)
    removed = ties[0] if len(ties) == 1 else ties[rng.index(len(ties))]
    if removed == mu:
        new = Population(pop.members, pop.fitnesses, pop.generation + 1)
    else:
        new = Population(
            pop.members[:removed] + (child,) + pop.members[removed + 1 :],
            pop.fitnesses[:removed] + (cf,) + pop.fitnesses[removed + 1 :],
            pop.generation + 1,
        )
    return new, dict(parents=parents, offspring=child, removed=removed)


def removal_branch(fits: tuple[int, ...], child_fit: int, removed: int) -> str:
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
# reach the kernel's edge paths: chi = n flips every bit with no draw, (1-p_m)^n
# underflows at n = 1000, chi = 600 (the generator's own binomial), and equal
# plateau parents at n = 120 draw and discard a three-word crossover mask.
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
]


@pytest.mark.parametrize("n,k,mu,p_c,chi,start,steps,branch", DRAW_ORDER_CELLS)
def test_step_follows_documented_draw_order(n, k, mu, p_c, chi, start, steps, branch):
    params = GaParams(n=n, k=k, mu=mu, p_c=p_c, chi=chi, seed=17)
    pop_a = start(params, make_rng(17, 0))
    pop_b = pop_a
    rng_a = make_rng(17, 1)
    rng_b = make_rng(17, 1)
    branches = Counter()
    for _ in range(steps):
        fits = pop_a.fitnesses
        pop_a, trace = ga_step(pop_a, params, rng_a)
        pop_b, manual = manual_step(pop_b, params, rng_b)
        assert trace.parent_indices == manual["parents"]
        assert trace.offspring == manual["offspring"]
        assert trace.removed_index == manual["removed"]
        assert pop_a == pop_b
        branches[removal_branch(fits, trace.offspring_fitness, trace.removed_index)] += 1
    assert branches[branch] >= 1, dict(branches)


def test_draw_order_cells_cover_every_removal_branch():
    covered = {cell.values[-1] for cell in DRAW_ORDER_CELLS}
    assert covered >= {
        "child_strictly_worst",
        "unique_minimum",
        "all_tie_child_ties",
        "all_tie_child_better",
        "partial_tie_later",
    }


@pytest.mark.parametrize("offset", [2, 3, 4, 5, 6, 7])
def test_equal_parent_step_matches_manual_step_across_a_refill(offset):
    # Coin, two indices, four unused mask words, then the flip count: started
    # at BLOCK - 2 the block refills at the second index, at BLOCK - 3 to
    # BLOCK - 6 inside the mask words that equal parents draw and discard.
    params = GaParams(n=200, k=3, mu=4, p_c=1.0, chi=1.0, seed=19)
    pop = init_monomorphic_plateau(params, make_rng(19, 0))
    rng, twin = make_rng(19, 1), make_rng(19, 1)
    for stream in (rng, twin):
        for _ in range(RandomStream.BLOCK - offset):
            stream.uniform()
    new, trace = ga_step(pop, params, rng)
    want, manual = manual_step(pop, params, twin)
    assert trace.event is EventClass.CROSSOVER_CLOSE
    assert trace.parent_indices == manual["parents"]
    assert trace.offspring == manual["offspring"]
    assert trace.removed_index == manual["removed"]
    assert new == want
    assert rng._pos == twin._pos
    assert rng.uniform() == twin.uniform()


@pytest.mark.parametrize(
    "n,chi,reaches_binomial",
    [
        pytest.param(40, 1.0, False, id="n40-chi1"),
        pytest.param(12, 3.0, False, id="n12-chi3"),
        pytest.param(200, 0.5, False, id="n200-chi0.5"),
        pytest.param(10, 10.0, True, id="chi-n-flips-all"),
        pytest.param(1000, 600.0, True, id="binomial-underflow"),
    ],
)
def test_each_run_takes_one_mutation_path_fixed_by_its_params(monkeypatch, n, chi, reaches_binomial):
    # Fresh streams, so each run's first step is covered too: the inline walk
    # makes no RandomStream.binomial call, the two edge settings one per step.
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
    assert calls == ([(n, chi / n)] * 120 if reaches_binomial else [])


def test_mutation_walk_is_the_no_flip_probability_and_follows_replace():
    for n in (2, 10, 100, 1000):
        for chi in (0.25, 1.0, 2.0, n / 2, n):
            params = GaParams(n=n, k=1, mu=2, p_c=0.5, chi=chi)
            start, ratio = params.mutation_walk
            assert start == no_flip_probability(chi, n)  # bit for bit
            if chi < n:
                assert ratio == params.p_m / (1 - params.p_m)
    params = GaParams(n=100, k=3, mu=4, p_c=0.5, chi=1.0)
    moved = replace(params, chi=2.0)
    assert moved.mutation_walk == (no_flip_probability(2.0, 100), 0.02 / 0.98)
    assert moved.mutation_walk != params.mutation_walk
    assert replace(moved, chi=1.0) == params  # the walk is derived, not compared
    assert replace(params, chi=100.0).mutation_walk[0] == 0.0


# sha256 of 10^4-step trace streams: any change to a draw, a tie-break or a
# record field changes the digest.
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


@pytest.mark.parametrize("n,k,mu,p_c,start,digest", TRACE_PINS)
def test_trace_stream_matches_pinned_digest(n, k, mu, p_c, start, digest):
    params = GaParams(n=n, k=k, mu=mu, p_c=p_c, chi=1.0, seed=2023)
    pop = start(params, make_rng(2023, 0))
    rng = make_rng(2023, 1)
    h = hashlib.sha256()
    for _ in range(10_000):
        pop, tr = ga_step(pop, params, rng)
        fields = (
            tr.t,
            tr.event.value,
            tr.parent_indices,
            tr.offspring,
            tr.offspring_fitness,
            tr.removed_index,
            tr.removed_genotype,
            tr.optimum_created,
        )
        h.update(repr(fields).encode())
    h.update(repr((pop.members, pop.fitnesses, pop.generation)).encode())
    assert h.hexdigest() == digest


def test_step_leaves_its_input_population_unchanged():
    # The records are not frozen; ga_step must still never write to its input.
    for start, p_c in ((init_uniform, 0.5), (init_monomorphic_plateau, 1.0)):
        params = GaParams(n=30, k=3, mu=16, p_c=p_c, chi=1.0, seed=8)
        pop = start(params, make_rng(8, 0))
        rng = make_rng(8, 1)
        for _ in range(300):
            before = (tuple(pop.members), tuple(pop.fitnesses), pop.generation)
            new, _ = ga_step(pop, params, rng)
            assert (pop.members, pop.fitnesses, pop.generation) == before
            pop = new
    params = GaParams(n=60, k=3, mu=8, p_c=1.0, chi=1.0, seed=9)
    pop, focal, _ = two_species_population(params, 5, 1, make_rng(9, 0))
    before = (tuple(pop.members), tuple(pop.fitnesses), pop.generation)
    estimate_transition(params, pop, focal, EventClass.CROSSOVER_CLOSE, 500, make_rng(9, 1))
    assert (pop.members, pop.fitnesses, pop.generation) == before


def test_check_population_rejects_a_corrupted_minimum_cache():
    params = GaParams(n=12, k=2, mu=4, p_c=0.5, chi=1.0, seed=0)
    pop = population_of(params, 0x0FF, 0x3FF, 0x0FF, 0xFFF)
    assert (pop.low, pop.tied) == (10, 2)
    check_population(pop, params.k)
    for low, tied in ((11, 2), (10, 1), (4, 1)):
        bad = Population(pop.members, pop.fitnesses, pop.generation, low, tied)
        assert bad == pop  # the cache takes no part in equality
        with pytest.raises(IntegrityError):
            check_population(bad, params.k)


def test_minimum_cache_holds_after_every_chained_step():
    # A step recomputes the cache only when a fitter offspring replaces the
    # last member at the minimum; that branch must run from each start.
    params = GaParams(n=12, k=2, mu=6, p_c=0.5, chi=1.0, seed=12)
    starts = {
        "uniform": lambda: init_uniform(params, make_rng(12, 0)),
        "plateau": lambda: init_monomorphic_plateau(params, make_rng(12, 0)),
        "two_species": lambda: two_species_population(params, 3, 1, make_rng(12, 0))[0],
    }
    recomputed = Counter()
    for name, start in starts.items():
        pop = start()
        check_population(pop, params.k)
        rng = make_rng(12, 1)
        for _ in range(500):
            new, trace = ga_step(pop, params, rng)
            if pop.tied == 1 and trace.removed_index < params.mu and trace.offspring_fitness > pop.low:
                recomputed[name] += 1
            check_population(new, params.k)
            pop = new
    assert all(recomputed[name] >= 1 for name in starts), dict(recomputed)


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
            if trace.offspring_fitness < min(pop.fitnesses):
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
    for t in range(1, 401):
        before = multiset(pop)
        prev = pop
        pop, trace = ga_step(pop, params, rng)
        assert trace.t == t
        assert pop.generation == t
        assert len(pop.members) == params.mu
        assert trace.offspring_fitness == jump_fitness(trace.offspring, params.k)
        assert trace.optimum_created == (trace.offspring_fitness == params.n + params.k)
        after = multiset(pop)
        if trace.removed_index == params.mu:
            assert after == before
        else:
            assert trace.removed_genotype == prev.members[trace.removed_index]
            expected = Counter(before)
            expected[trace.offspring.bits] += 1
            expected[trace.removed_genotype.bits] -= 1
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
            check_population(pop, params.k)
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
            out.append((trace.event, trace.parent_indices, trace.offspring.bits, trace.removed_index))
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
    got = list(steps(start, params, rng, limit))
    by_hand = []
    pop, hand_rng = start, make_rng(21, 1)
    for _ in range(limit):
        pop, trace = ga_step(pop, params, hand_rng)
        by_hand.append((pop, trace))
    assert [t for t, _, _ in got] == list(range(1, limit + 1))
    assert [(p, tr) for _, p, tr in got] == by_hand
    assert rng.uniform() == hand_rng.uniform()

    # Without a limit the chain goes on: its 501st item is step 501.
    t, pop, trace = next(islice(steps(start, params, make_rng(21, 1)), 500, None))
    assert t == pop.generation == trace.t == 501


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
