"""Diversity telemetry: the species and pairwise-distance trackers, counted
from a population and updated step by step."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from reference import snapshot

from jumpga import (
    GaParams,
    IntegrityError,
    PairwiseDistanceTracker,
    Population,
    SpeciesTracker,
    StepTrace,
    ga_step,
    init_monomorphic_plateau,
    init_uniform,
    jump_fitness,
    make_rng,
    steps,
    two_species_population,
)


def population_of(n: int, k: int, *bits: int) -> Population:
    return Population(bits, tuple(jump_fitness(g, n, k) for g in bits))


def test_census_counts_distinct_genotypes():
    pop = population_of(3, 1, 0b011, 0b011, 0b101)
    tracker = SpeciesTracker(pop)
    assert tracker.counts == {0b011: 2, 0b101: 1}
    assert tracker.largest == 2
    assert tracker.largest_class() == 0b011


def test_census_of_monomorphic_population():
    pop = population_of(4, 1, 0b0111, 0b0111, 0b0111)
    tracker = SpeciesTracker(pop)
    assert len(tracker.counts) == 1
    assert tracker.largest == 3


def test_hamming_histogram_hand_example():
    pop = population_of(3, 1, 0b000, 0b011, 0b011)
    tracker = PairwiseDistanceTracker(pop)
    assert tracker.counts == {2: 2, 0: 1}
    assert tracker.total_pairs == 3
    assert tracker.frequencies((0, 2)) == pytest.approx((1 / 3, 2 / 3), rel=1e-12)


def test_hamming_histogram_two_member_population():
    pop = population_of(8, 2, 0b00001111, 0b11111111)
    tracker = PairwiseDistanceTracker(pop)
    assert tracker.counts == {4: 1}
    assert tracker.total_pairs == 1
    with pytest.raises(ValueError, match="at least two members"):
        PairwiseDistanceTracker(population_of(8, 2, 0b00001111))


def test_histogram_and_census_ignore_member_order():
    bits = [0b0110, 0b1111, 0b0110, 0b0001, 0b1111]
    a = population_of(4, 1, *bits)
    b = population_of(4, 1, *reversed(bits))
    assert SpeciesTracker(a).counts == SpeciesTracker(b).counts
    assert PairwiseDistanceTracker(a).counts == PairwiseDistanceTracker(b).counts


def test_mean_pairwise_distance_of_uniform_populations():
    # Independent uniform bit strings differ at each position with probability
    # 1/2, so the mean pairwise distance at n=30 is 15.
    means = []
    for seed in range(100):
        p = GaParams(n=30, k=3, mu=10, p_c=0.5, chi=1.0, seed=seed)
        tracker = PairwiseDistanceTracker(init_uniform(p, make_rng(seed, 0)))
        means.append(sum(d * c for d, c in tracker.counts.items()) / tracker.total_pairs)
    grand = statistics.mean(means)
    se = statistics.stdev(means) / math.sqrt(len(means))
    assert abs(grand - 15.0) <= 3 * se + 0.05


def run_with_traces(params: GaParams, steps: int):
    pop = init_uniform(params, make_rng(params.seed, 0))
    rng = make_rng(params.seed, 1)
    history = [snapshot(pop)]
    traces = []
    for _ in range(steps):
        pop, trace = ga_step(pop, params, rng)
        history.append(snapshot(pop))
        traces.append(replace(trace))  # the next step rewrites ``trace``
        if trace.optimum_created:
            break
    return history, traces


def test_species_tracker_matches_full_census_after_every_step():
    params = GaParams(n=12, k=3, mu=8, p_c=0.5, chi=1.0, seed=41)
    history, traces = run_with_traces(params, 500)
    tracker = SpeciesTracker(history[0])
    for pop, trace in zip(history[1:], traces):
        tracker.apply(trace)
        census_now = Counter(pop.members)
        assert tracker.largest == max(census_now.values())
        for g, count in census_now.items():
            assert tracker.count(g) == count
        assert census_now[tracker.largest_class()] == tracker.largest


def test_species_tracker_state_equals_a_fresh_census_after_every_chained_step():
    # ``largest`` grows without a scan and is rescanned only when a copy leaves
    # a species of the largest size; both branches must run from each start.
    params = GaParams(n=14, k=3, mu=10, p_c=0.7, chi=1.0, seed=45)
    starts = {
        "uniform": lambda rng: init_uniform(params, rng),
        "plateau": lambda rng: init_monomorphic_plateau(params, rng),
        "two_species": lambda rng: two_species_population(params, 4, 2, rng)[0],
    }
    for name, start in starts.items():
        rng = make_rng(45, 0)
        pop = start(rng)
        tracker = SpeciesTracker(pop)
        census = Counter(pop.members)
        same = raised = rescanned = 0
        for _, pop, trace in steps(pop, params, rng, 500):
            largest = tracker.largest
            changed = tracker.apply(trace)
            same += trace.removed_index < params.mu and trace.offspring == trace.removed_genotype
            census_now = Counter(pop.members)
            assert changed == (census_now != census), name
            if changed:
                raised += census_now[trace.offspring] > largest
                rescanned += (
                    census[trace.removed_genotype] == largest
                    and census_now[trace.offspring] <= largest
                )
            census = census_now
            assert tracker.counts == census_now, name
            assert tracker.largest == max(census_now.values()), name
            assert census_now[tracker.largest_class()] == tracker.largest, name
        assert same > 0 and raised > 0 and rescanned > 0, (name, same, raised, rescanned)


def test_pairwise_tracker_matches_full_histogram_after_every_step():
    params = GaParams(n=12, k=3, mu=8, p_c=0.5, chi=1.0, seed=43)
    history, traces = run_with_traces(params, 300)
    tracker = PairwiseDistanceTracker(history[0])
    distances = tuple(range(0, 13))
    for pop, trace in zip(history[1:], traces):
        tracker.apply(trace)
        fresh = PairwiseDistanceTracker(pop)
        assert tracker.counts == fresh.counts
        got = tracker.frequencies(distances)
        assert got == fresh.frequencies(distances)
        assert sum(got) == pytest.approx(1.0, abs=1e-9)


def test_pairwise_tracker_matches_a_fresh_tracker_at_figure1_shape():
    # figure1's setting; the tracker groups members by genotype, so each start
    # must both empty a species and add a copy to a species it already holds.
    params = GaParams(n=100, k=4, mu=32, p_c=1.0, chi=1.0, seed=47)
    starts = {
        "plateau": lambda rng: init_monomorphic_plateau(params, rng),
        "uniform": lambda rng: init_uniform(params, rng),
        "two_species": lambda rng: two_species_population(params, 20, 2, rng)[0],
    }
    distances = tuple(range(0, 2 * params.k + 1, 2))
    for name, start in starts.items():
        rng = make_rng(47, 0)
        pop = start(rng)
        tracker = PairwiseDistanceTracker(pop)
        emptied = grown = 0
        for _, after, trace in steps(pop, params, rng, 1500):
            before = Counter(pop.members)
            changed = tracker.apply(trace)
            assert changed == (Counter(after.members) != before), name
            if changed:
                emptied += before[trace.removed_genotype] == 1
                grown += before[trace.offspring] > 0
            pop = snapshot(after)  # ``after`` is advanced in place by the next item
            fresh = PairwiseDistanceTracker(pop)
            assert tracker.counts == fresh.counts, name
            pairs = combinations(pop.members, 2)
            assert tracker.counts == Counter((a ^ b).bit_count() for a, b in pairs), name
            assert tracker.frequencies(distances) == fresh.frequencies(distances), name
        assert emptied > 0 and grown > 0, (name, emptied, grown)


def test_trackers_reject_inconsistent_traces():
    params = GaParams(n=10, k=2, mu=4, p_c=0.5, chi=1.0, seed=51)
    pop = init_uniform(params, make_rng(51, 0))
    _, trace = ga_step(pop, params, make_rng(51, 1))
    absent = pop.members[0] ^ 0b1010101
    assert absent not in pop.members
    bogus = StepTrace(
        event=trace.event,
        parent_indices=trace.parent_indices,
        offspring=trace.offspring,
        removed_index=0,
        removed_genotype=absent,
        optimum_created=False,
    )
    with pytest.raises(IntegrityError):
        SpeciesTracker(pop).apply(bogus)
    with pytest.raises(IntegrityError):
        PairwiseDistanceTracker(pop).apply(bogus)
    # An offspring equal to the absent genotype it claims to replace.
    with pytest.raises(IntegrityError):
        SpeciesTracker(pop).apply(replace(bogus, offspring=absent))
    with pytest.raises(IntegrityError):
        PairwiseDistanceTracker(pop).apply(replace(bogus, offspring=absent))


def test_offspring_discard_leaves_trackers_unchanged():
    params = GaParams(n=12, k=2, mu=4, p_c=0.0, chi=1.0, seed=0)
    pop = init_monomorphic_plateau(params, make_rng(0, 0))
    rng = make_rng(0, 1)
    st = SpeciesTracker(pop)
    pt = PairwiseDistanceTracker(pop)
    dist_axis = tuple(range(0, 5))
    for _ in range(100):
        pop, trace = ga_step(pop, params, rng)
        before = (st.largest, pt.frequencies(dist_axis))
        st.apply(trace)
        pt.apply(trace)
        if trace.removed_index == params.mu:
            assert (st.largest, pt.frequencies(dist_axis)) == before
        if trace.optimum_created:
            break
