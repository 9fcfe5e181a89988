"""Monte Carlo experiment runners: conditioned estimates, drift, takeover,
survival monitoring, distance series, paired comparisons, and the bound sweep."""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import astuple, replace

import pytest
from reference import (
    DriftEstimate,
    estimate_unconditioned_drift,
    floyd_reference,
    hamming_distance,
    snapshot,
    standard_bit_mutation,
    uniform_crossover,
)

from jumpga import (
    ConditionedEstimate,
    EventClass,
    GaParams,
    Population,
    SpeciesTracker,
    StopCondition,
    estimate_transition,
    exact_optimum_probability,
    ga_step,
    init_monomorphic_plateau,
    jump_fitness,
    make_rng,
    run_bound_sweep,
    run_comparison,
    run_figure1,
    run_survival,
    run_takeover,
    sample_optimum_creation_frequency,
    steps,
    sweep_grid_ys,
    takeover_reference,
    two_species_population,
)
from jumpga import experiments
from jumpga.core import SettingError


# ---------------------------------------------------------------------------
# two-species geometry


def test_two_species_population_geometry():
    params = GaParams(n=40, k=3, mu=10, p_c=1.0, chi=1.0, seed=8)
    for y, delta in ((1, 1), (5, 2), (9, 3)):
        pop, focal, other = two_species_population(params, y, delta, make_rng(8, 0))
        assert len(pop.members) == 10
        assert sum(g == focal for g in pop.members) == y
        assert sum(g == other for g in pop.members) == 10 - y
        assert hamming_distance(focal, other) == 2 * delta
        assert focal.bit_count() == other.bit_count() == 37
        assert all(f == 40 for f in pop.fitnesses)


def test_two_species_population_domain():
    params = GaParams(n=40, k=3, mu=10, p_c=1.0, chi=1.0, seed=8)
    for y, delta in ((0, 1), (10, 1), (5, 0), (5, 4)):
        with pytest.raises(ValueError):
            two_species_population(params, y, delta, make_rng(8, 0))


def test_two_species_population_follows_its_draw_order_on_a_twin_stream():
    # The docstring's draws, made with Floyd's set sampler on a twin stream:
    # k zero positions of n, then ranks in the sorted zeros to fill, then
    # ranks in the sorted ones to clear.  The grid includes delta = k.
    cells = 0
    for n in (2, 5, 8, 21, 40, 100):
        for k in sorted({1, 2, 3, n // 2} & set(range(1, n // 2 + 1))):
            for delta in range(1, min(k, n - k) + 1):
                params = GaParams(n=n, k=k, mu=5, p_c=1.0, chi=1.0, seed=4)
                for stream in range(4):
                    rng, twin = make_rng(4, stream), make_rng(4, stream)
                    pop, focal, other = two_species_population(params, 2, delta, rng)
                    zeros = sorted(floyd_reference(twin, n, k)[0])
                    ones = sorted(set(range(n)) - set(zeros))
                    fill = {zeros[i] for i in floyd_reference(twin, k, delta)[0]}
                    clear = {ones[i] for i in floyd_reference(twin, n - k, delta)[0]}
                    want_focal = sum(1 << i for i in ones)
                    want_other = sum(1 << i for i in (set(ones) - clear) | fill)
                    assert (focal, other) == (want_focal, want_other)
                    assert pop.members == [want_focal] * 2 + [want_other] * 3
                    assert pop.fitnesses == [n] * 5 and (pop.low, pop.tied) == (n, 5)
                    assert rng._pos == twin._pos
                    cells += 1
    assert cells == 4 * 112


# ---------------------------------------------------------------------------
# conditioned transition estimates


def test_estimate_transition_monomorphic_mutation_only():
    # One species filling the population: the focal count can only decrease.
    params = GaParams(n=100, k=3, mu=10, p_c=0.0, chi=1.0, seed=7)
    pop = init_monomorphic_plateau(params, make_rng(7, 0))
    est = estimate_transition(
        params, pop, pop.members[0], EventClass.MUTATION_ONLY, 100_000, make_rng(7, 1)
    )
    assert est.y == 10
    assert est.p_plus_hat == 0.0
    assert est.p_minus_hat > 0.0
    assert est.trials == 100_000
    assert est.attempts == 100_000  # with p_c = 0 every attempt is a mutation event
    assert not est.inconclusive


def test_estimate_transition_counts_and_errors_are_consistent():
    params = GaParams(n=60, k=3, mu=8, p_c=1.0, chi=1.0, seed=9)
    pop, focal, _ = two_species_population(params, 5, 1, make_rng(9, 0))
    est = estimate_transition(params, pop, focal, EventClass.CROSSOVER_CLOSE, 5000, make_rng(9, 1))
    assert est.event == EventClass.CROSSOVER_CLOSE
    assert est.y == 5
    assert 0.0 <= est.p_plus_hat and 0.0 <= est.p_minus_hat
    assert est.p_plus_hat + est.p_minus_hat <= 1.0
    for p, se in ((est.p_plus_hat, est.stderr_plus), (est.p_minus_hat, est.stderr_minus)):
        assert se == pytest.approx(math.sqrt(p * (1 - p) / est.trials), rel=1e-12)
    assert est.attempts >= est.trials == 5000


def test_estimate_transition_flags_scarce_acceptance():
    params = GaParams(n=100, k=3, mu=10, p_c=0.0, chi=1.0, seed=7)
    pop = init_monomorphic_plateau(params, make_rng(7, 0))
    est = estimate_transition(
        params, pop, pop.members[0], EventClass.MUTATION_ONLY, 50, make_rng(7, 1)
    )
    assert est.trials == 50
    assert est.inconclusive


def test_estimate_transition_impossible_event_is_inconclusive_not_an_error():
    # Distance-2 parents can never produce a distant-crossover event, so the
    # sampler exhausts its attempt budget of 50 steps per trial with zero
    # accepted trials.
    params = GaParams(n=40, k=3, mu=6, p_c=1.0, chi=1.0, seed=5)
    pop, focal, _ = two_species_population(params, 3, 1, make_rng(5, 0))
    trials = 100
    est = estimate_transition(
        params, pop, focal, EventClass.CROSSOVER_DISTANT, trials, make_rng(5, 1)
    )
    assert est.trials == 0
    assert est.attempts == 50 * trials
    assert est.inconclusive
    assert est.p_plus_hat == est.p_minus_hat == 0.0


def test_estimate_unconditioned_drift_structure():
    params = GaParams(n=60, k=3, mu=8, p_c=0.5, chi=1.0, seed=6)
    pop, focal, _ = two_species_population(params, 6, 1, make_rng(6, 0))
    de = estimate_unconditioned_drift(params, pop, focal, 20_000, make_rng(6, 1))
    assert de.y == 6
    assert de.trials == 20_000
    assert de.increases + de.decreases <= de.trials
    assert abs(de.mean) <= 1.0
    assert de.stderr > 0.0
    # At y = 3mu/4 the per-step drift of the focal species is negative.
    assert de.mean + 3 * de.stderr < 0.0


def test_estimators_match_pinned_values():
    # Exact results of the two estimators on two cells, including a run that
    # the attempt cap stops; any change to their counting or to a draw
    # changes them.
    p = GaParams(n=60, k=3, mu=8, p_c=0.5, chi=1.0, seed=41)
    pop, focal, _ = two_species_population(p, 5, 1, make_rng(41, 0))
    assert estimate_transition(
        p, pop, focal, EventClass.CROSSOVER_CLOSE, 2000, make_rng(41, 1)
    ) == ConditionedEstimate(
        EventClass.CROSSOVER_CLOSE, 5, 0.06, 0.091, 0.0053103672189407005, 0.006431135203057078,
        2000, 3946, False,
    )
    assert estimate_unconditioned_drift(p, pop, focal, 3000, make_rng(41, 2)) == DriftEstimate(
        5, -0.006666666666666667, 0.007317153868871471, 3000, 231, 251
    )

    p = GaParams(n=40, k=2, mu=6, p_c=0.7, chi=1.5, seed=42)
    pop, focal, _ = two_species_population(p, 4, 2, make_rng(42, 0))
    # At p_c = 0.99 about 1 % of steps are mutation-only, so the cap of 50
    # steps per trial stops the run with about half the trials accepted.
    assert estimate_transition(
        replace(p, p_c=0.99), pop, focal, EventClass.MUTATION_ONLY, 600, make_rng(42, 3)
    ) == ConditionedEstimate(
        EventClass.MUTATION_ONLY, 4, 0.05190311418685121, 0.03460207612456748,
        0.013048907327355674, 0.01075116030632547, 289, 30000, False,
    )
    assert estimate_unconditioned_drift(p, pop, focal, 3000, make_rng(42, 2)) == DriftEstimate(
        4, -0.03333333333333333, 0.005524356842069357, 3000, 89, 189
    )


def test_one_step_estimators_restart_every_trial_after_the_minimum_empties():
    # One member sits alone at the minimum, so a fitter child that replaces it
    # empties the minimum and the cache is recomputed.  Every trial must still
    # step from the population passed in, as ga_step on a fresh copy of it
    # does by hand.
    p = GaParams(n=12, k=2, mu=6, p_c=0.5, chi=1.0, seed=44)
    focal = 0xFFC  # on the plateau: fitness 12
    lower = 0xFF0  # 8 ones: fitness 10
    pop = Population((focal,) * 5 + (lower,), (12,) * 5 + (10,))
    before = (tuple(pop.members), tuple(pop.fitnesses), pop.low, pop.tied)
    rng, twin = make_rng(44, 1), make_rng(44, 1)
    drift = estimate_unconditioned_drift(p, pop, focal, 2000, rng)
    ups = downs = emptied = 0
    for _ in range(2000):
        new, trace = ga_step(snapshot(pop), p, twin)
        if trace.removed_index < p.mu:
            emptied += pop.tied == 1 and jump_fitness(trace.offspring, p.n, p.k) > pop.low
            dy = new.members.count(focal) - pop.members.count(focal)
            ups += dy > 0
            downs += dy < 0
    assert emptied >= 100
    assert (drift.increases, drift.decreases) == (ups, downs)
    assert rng.uniform() == twin.uniform()
    assert (tuple(pop.members), tuple(pop.fitnesses), pop.low, pop.tied) == before


# ---------------------------------------------------------------------------
# direct optimum-creation sampling


def test_sampled_creation_frequency_matches_exact_probability_both_routes():
    n, k, d, pm = 12, 2, 1, 0.1
    full = (1 << n) - 1
    a = full ^ ((1 << k) - 1)
    b = full ^ (((1 << k) - 1) << d)
    exact = exact_optimum_probability(a, b, n, pm)
    trials = 100_000
    se = math.sqrt(exact * (1 - exact) / trials)

    mc = sample_optimum_creation_frequency(a, b, n, pm, trials, 3, 0)
    assert mc.trials == trials
    assert mc.hits == round(mc.frequency * trials)
    assert abs(mc.frequency - exact) <= 3 * se

    # Second, independent route through the reference operators one at a time.
    rng = make_rng(3, 1)
    hits = 0
    for _ in range(trials):
        child = standard_bit_mutation(uniform_crossover(a, b, n, rng), n, pm, rng)
        hits += child == full
    assert abs(hits / trials - exact) <= 3 * se


def one_draw_hits(a: int, b: int, n: int, p_m: float, trials: int, seed: int, stream: int) -> int:
    """The documented sampler as one ``random((trials, 2, n))`` draw: trial i's
    row 0 holds its crossover coins (below 1/2 takes ``a``'s bit), row 1 its
    mutation coins (below ``p_m`` flips), column j for position j."""
    u = make_rng(seed, stream).generator.random((trials, 2, n))
    hits = 0
    for take_a, flip in zip((u[:, 0] < 0.5).tolist(), (u[:, 1] < p_m).tolist()):
        child = sum(((a if t else b) >> j & 1) << j for j, t in enumerate(take_a))
        hits += child ^ sum(f << j for j, f in enumerate(flip)) == (1 << n) - 1
    return hits


def test_sampled_creation_frequency_is_one_draw_of_its_trials():
    # The sampler takes its uniforms a slab of (1 << 19) // n trials at a time;
    # around one slab and across several, the last one partial, the hits are
    # those of a single draw.  The parents differ at one position, so the hit
    # rate is 1/2 * (1 - p_m)^(n - 1), about 0.45: a trial moved, dropped or
    # drawn out of order changes the count more often than not.
    n, p_m = 200, 0.0005
    full = (1 << n) - 1
    a, b = full, full ^ (1 << 100)
    slab = (1 << 19) // n
    for trials in (slab - 1, slab + 1, 3 * slab + 5):
        mc = sample_optimum_creation_frequency(a, b, n, p_m, trials, 6, 1)
        assert mc.trials == trials
        assert mc.hits == one_draw_hits(a, b, n, p_m, trials, 6, 1) > trials // 3


def test_sampled_creation_frequency_is_pinned_across_slabs():
    # 14 slabs at n = 12, the last one partial.
    n = 12
    full = (1 << n) - 1
    a, b = full ^ 0b011, full ^ 0b110
    mc = sample_optimum_creation_frequency(a, b, n, 0.1, 600_001, 5, 2)
    assert (mc.hits, mc.trials) == (5859, 600_001)


def test_sampled_creation_frequency_certain_event():
    n = 10
    opt = (1 << n) - 1
    mc = sample_optimum_creation_frequency(opt, opt, n, 0.0, 1000, 1, 0)
    assert mc.frequency == 1.0
    assert mc.hits == 1000
    assert mc.stderr == 0.0


def test_sampled_creation_frequency_rejects_a_count_below_1_before_any_stream(monkeypatch):
    def no_stream(*args, **kw):
        raise AssertionError("a random stream was made before the trial count was checked")

    monkeypatch.setattr(experiments, "make_rng", no_stream)
    g = (1 << 10) - 1
    with pytest.raises(SettingError, match="must be positive"):
        sample_optimum_creation_frequency(g, g, 10, 0.1, 0, 1)


# ---------------------------------------------------------------------------
# censored summaries


@pytest.mark.parametrize(
    "values",
    [
        [7],
        [3, 1, 2],
        [4, 1, 3, 2],
        [10**17 + 1, 10**17 + 2],  # ints whose mean is rounded to a float
        [5, 5, 5, 6],
        [0.1, 0.2, 0.7, 0.4],
        [3, math.inf, 2, 1, math.inf],
        [1, 2, math.inf, math.inf],
    ],
)
def test_median_is_statistics_median_bit_for_bit(values):
    got = experiments._median(values)
    want = float(statistics.median(values))
    assert type(got) is float
    assert got == want and repr(got) == repr(want)


def test_censored_median_counts_censored_runs_as_infinite_past_half():
    # A censored run (None) enters the median as +inf, and only when more
    # than half the runs completed; the mean is over completed runs only.
    stats = experiments._censored_stats
    assert stats([4, None, 2]) == (3.0, 4.0)
    assert stats([4, None, 2, 1]) == (7 / 3, 3.0)
    assert stats([4, None, None, 2, 1]) == (7 / 3, 4.0)
    assert stats([5, 1, None, None]) == (3.0, None)  # exactly half completed
    assert stats([None, 6, None]) == (6.0, None)
    assert stats([None, None]) == (None, None)
    assert stats([3, None, 1, None, None, 8, 9]) == (21 / 4, 9.0)
    assert stats([3, 1, 8]) == (4.0, 3.0)


# ---------------------------------------------------------------------------
# takeover


def test_takeover_reference_scale():
    p = GaParams(n=100, k=3, mu=20, p_c=0.5, chi=1.0, seed=1)
    assert takeover_reference(p) == pytest.approx(20 * 100 + 400 * math.log(20), rel=1e-12)


def test_takeover_times_are_stable_across_dimension():
    ratios = []
    for n in (100, 200, 400):
        p = GaParams(n=n, k=3, mu=20, p_c=0.5, chi=1.0, seed=2)
        s = run_takeover(p, replicates=10)
        assert s.censored == 0
        assert len(s.replicates) == 10
        assert all(r.hitting_time is not None and r.hitting_time <= s.cap for r in s.replicates)
        ratios.append(s.mean_to_reference_ratio)
    assert max(ratios) / min(ratios) < 10  # mean/reference stays within one order


def test_takeover_is_deterministic():
    p = GaParams(n=60, k=3, mu=12, p_c=0.5, chi=1.0, seed=3)
    a = run_takeover(p, replicates=5)
    b = run_takeover(p, replicates=5)
    assert a == b


# ---------------------------------------------------------------------------
# survival monitoring


def test_survival_monitoring_small_run(monkeypatch):
    p = GaParams(n=30, k=3, mu=4, p_c=0.5, chi=1.0, seed=9)
    s = run_survival(p, replicates=3, lam=0.75, t_max=2000)
    assert s.threshold == 3  # ceil(0.75 * 4)
    assert s.monitored_replicates == 3
    assert s.focal_excursions <= s.max_excursions <= 3
    assert s.focal_excursion_frequency == s.focal_excursions / 3
    assert s.max_excursion_frequency == s.max_excursions / 3
    for r in s.replicates:
        assert r.monitored_iterations <= 2000
        if r.focal_hit_time is not None:
            assert r.focal_hit_time <= r.monitored_iterations
        if r.max_hit_time is not None:
            assert r.max_hit_time <= r.monitored_iterations
    # The tail bound t_max^2 exp(-C mu) is hopeless at this scale and must be
    # flagged as vacuous rather than reported as meaningful.
    assert s.analytic_tail == pytest.approx(
        2000**2 * math.exp(-4 * 9.8795748e-4), rel=1e-6
    )
    assert s.tail_is_vacuous
    # A lam within rounding of 1/2 still needs more than mu/2 members, which
    # no species has at takeover, so monitoring reads the tracker only after
    # a step that changed the multiset.
    events = []
    apply, count = SpeciesTracker.apply, SpeciesTracker.count

    def logged_apply(self, trace):
        events.append(apply(self, trace))
        return events[-1]

    def logged_count(self, g):
        events.append("count")
        return count(self, g)

    monkeypatch.setattr(SpeciesTracker, "apply", logged_apply)
    monkeypatch.setattr(SpeciesTracker, "count", logged_count)
    s = run_survival(p, replicates=6, lam=0.5 + 1e-12, t_max=2000)
    assert s.threshold == 3
    assert s.monitored_replicates == 6
    reads = [i for i, e in enumerate(events) if e == "count"]
    assert reads and all(events[i - 1] is True for i in reads)
    assert len(reads) < sum(r.monitored_iterations for r in s.replicates)  # some were skipped


def test_survival_monitoring_stops_at_the_step_that_creates_the_optimum():
    # A small gap with crossover on every step: each replicate's monitoring
    # ends at the optimum.  Replay every replicate on a twin stream.
    p = GaParams(n=12, k=2, mu=6, p_c=1.0, chi=1.0, seed=3)
    s = run_survival(p, replicates=10, lam=0.75, t_max=20_000)
    assert s.monitored_replicates == 10
    for rep in s.replicates:
        rng = make_rng(3, rep.replicate)
        pop = init_monomorphic_plateau(p, rng)
        tracker = SpeciesTracker(pop)
        takeover = created = None
        for t, _, trace in steps(pop, p, rng, 20_000):
            if takeover is None:
                tracker.apply(trace)
                if 2 * tracker.largest <= p.mu:
                    takeover = t
            elif trace.optimum_created:
                created = t - takeover
                break
        assert rep.takeover_time == takeover and created is not None
        assert rep.optimum_interrupted
        assert rep.monitored_iterations == created
        assert rep.focal_hit_time is None
        # the creating step is never applied to the tracker, so no hit falls on it
        assert rep.max_hit_time is None or rep.max_hit_time < created


def test_survival_rejects_bad_threshold_fraction():
    p = GaParams(n=30, k=3, mu=4, p_c=0.5, chi=1.0, seed=9)
    with pytest.raises(ValueError):
        run_survival(p, replicates=2, lam=0.5, t_max=100)


# ---------------------------------------------------------------------------
# pairwise-distance series


def test_distance_series_structure_and_determinism():
    p = GaParams(n=60, k=3, mu=12, p_c=1.0, chi=1.0, seed=5)
    cfg = dict(replicates=2, stride=12, max_iterations=2_000_000)
    runs = run_figure1(p, **cfg)
    assert len(runs) == 2
    for dr in runs:
        assert dr.distances == (0, 2, 4, 6)
        t0, f0 = dr.rows[0]
        assert t0 == 0
        assert f0[0] == 1.0  # monomorphic start: all pairs at distance 0
        for i, (t, freqs) in enumerate(dr.rows):
            assert t == 12 * i
            assert sum(freqs) == pytest.approx(1.0, abs=1e-9)
            assert all(f >= 0 for f in freqs)
        assert dr.found_optimum
        assert dr.rows[-1][0] <= dr.iterations
    assert run_figure1(p, **cfg) == runs


def test_distance_series_default_stride_follows_mu():
    # Without a stride, rows come every step up to mu = 64 and every 10th beyond.
    for mu, stride in ((64, 1), (65, 10)):
        p = GaParams(n=100, k=3, mu=mu, p_c=0.5, chi=1.0, seed=7)
        (dr,) = run_figure1(p, replicates=1, stride=None, max_iterations=30)
        assert (dr.iterations, dr.found_optimum) == (30, False)
        assert [t for t, _ in dr.rows] == list(range(0, 31, stride))


def test_distance_series_rows_share_one_frequency_tuple_per_unchanged_stretch():
    # ``rows`` repeats each stretch's one tuple object over the stretch's rows.
    p = GaParams(n=100, k=4, mu=32, p_c=1.0, chi=1.0, seed=11)
    (dr,) = run_figure1(p, replicates=1, max_iterations=3000)
    freqs = [f for _, f in dr.rows]
    starts = [f for i, f in enumerate(freqs) if i == 0 or f is not freqs[i - 1]]
    # Each object fills one stretch of consecutive rows and no other row.
    assert len({id(f) for f in starts}) == len(starts) == len({id(f) for f in freqs})
    assert len(starts) < len(freqs)


def test_distance_series_runs_expand_to_the_rows_of_a_per_step_loop():
    # The runner's stretches, expanded, are the rows that a loop counting every
    # pair at every row time gives on the same stream, and a stretch starts at
    # each row time after a step that changed the multiset, and only there.
    p = GaParams(n=60, k=3, mu=12, p_c=1.0, chi=1.0, seed=5)
    for stride, cap in ((1, 3000), (12, 10**6), (7, 500)):
        (dr,) = run_figure1(p, replicates=1, stride=stride, max_iterations=cap)
        rng = make_rng(p.seed, stream=0)
        pop = init_monomorphic_plateau(p, rng)

        def row(t, members):
            counts = Counter((a ^ b).bit_count() for i, a in enumerate(members) for b in members[:i])
            return t, tuple(counts[d] / (p.mu * (p.mu - 1) // 2) for d in dr.distances)

        rows, starts, changed = [row(0, pop.members)], [0], False
        for t, work, trace in steps(pop, p, rng, cap):
            if trace.optimum_created:
                break
            changed |= trace.removed_index < p.mu and trace.offspring != trace.removed_genotype
            if t % stride == 0:
                rows.append(row(t, work.members))
                if changed:
                    starts.append(t)
                    changed = False
        assert dr.rows == tuple(rows)
        times = [r for r, _ in dr.runs]
        assert [r.start for r in times] == starts
        assert all(r and r.step == stride for r in times)
        assert [r.stop for r in times[:-1]] == starts[1:]
        # The last stretch ends before the step that found the optimum, or after the cap.
        assert times[-1].stop == dr.iterations + (not dr.found_optimum)


def test_distance_series_distinct_replicates_differ():
    p = GaParams(n=60, k=3, mu=12, p_c=1.0, chi=1.0, seed=5)
    runs = run_figure1(p, replicates=2, stride=12)
    assert runs[0].iterations != runs[1].iterations or runs[0].rows != runs[1].rows


# ---------------------------------------------------------------------------
# crossover vs mutation-only comparison


def test_comparison_pairs_arms_and_reports_ratio():
    p = GaParams(n=30, k=1, mu=6, p_c=0.5, chi=1.0, seed=3)
    s = run_comparison(p, replicates=10)
    labels = [arm.label for arm in s.arms]
    assert labels == ["crossover", "mutation_only"]
    assert s.arms[0].p_c == 0.5
    assert s.arms[1].p_c == 0.0
    for arm in s.arms:
        assert arm.censored == 0
        assert len(arm.records) == 10
        assert [r.replicate for r in arm.records] == list(range(10))
        assert all(r.stop_reason == "optimum_found" for r in arm.records)
    assert s.evaluation_ratio == pytest.approx(
        s.arms[1].median_evaluations / s.arms[0].median_evaluations, rel=1e-12
    )
    # Width-1 jumps are easy for both arms; the arms stay within a small factor.
    assert 0.2 <= s.evaluation_ratio <= 5.0


# ---------------------------------------------------------------------------
# iteration caps


def test_a_cap_of_zero_means_zero_iterations_in_every_runner():
    p = GaParams(n=20, k=2, mu=6, p_c=0.5, chi=1.0, seed=8)
    takeover = run_takeover(p, replicates=2, max_iterations=0)
    assert takeover.cap == 0
    assert [(r.hitting_time, r.censored) for r in takeover.replicates] == [(None, True)] * 2
    survival = run_survival(p, replicates=2, lam=0.75, t_max=50, max_iterations=0)
    assert survival.monitored_replicates == 0
    assert all(r.takeover_censored for r in survival.replicates)
    for dr in run_figure1(p, replicates=2, max_iterations=0):
        assert (dr.iterations, dr.found_optimum, len(dr.rows)) == (0, False, 1)
    comparison = run_comparison(p, replicates=2, max_iterations=0)
    assert comparison.cap == 0
    for arm in comparison.arms:
        assert [(r.iterations, r.stop_reason) for r in arm.records] == [(0, "max_iterations")] * 2


@pytest.mark.parametrize(
    "runner, kwargs",
    [
        (run_takeover, {}),
        (run_survival, {"lam": 0.75, "t_max": 50}),
        (run_figure1, {}),
        (run_comparison, {}),
    ],
)
def test_a_negative_cap_is_rejected_before_any_draw(monkeypatch, runner, kwargs):
    def no_stream(*args, **kw):
        raise AssertionError("a random stream was made before the cap was checked")

    monkeypatch.setattr(experiments, "make_rng", no_stream)
    p = GaParams(n=20, k=2, mu=6, p_c=0.5, chi=1.0, seed=8)
    with pytest.raises(ValueError, match="max_iterations must be non-negative"):
        runner(p, replicates=2, max_iterations=-5, **kwargs)


@pytest.mark.parametrize(
    "runner, p_c, kwargs, message",
    [
        (run_bound_sweep, 0.5, {"mus": (4, 8), "trials": 100}, "sweep needs k >= 2"),
        (run_survival, 0.0, {"replicates": 2, "lam": 0.75, "t_max": 50}, "p_c must lie in"),
    ],
)
def test_a_setting_the_runner_cannot_use_is_rejected_before_any_draw(
    monkeypatch, runner, p_c, kwargs, message
):
    # The sweep's distant cells need k >= 2; the survival tail needs p_c > 0.
    def no_stream(*args, **kw):
        raise AssertionError("a random stream was made before the settings were checked")

    monkeypatch.setattr(experiments, "make_rng", no_stream)
    p = GaParams(n=20, k=1, mu=6, p_c=p_c, chi=1.0, seed=8)
    with pytest.raises(ValueError, match=message):
        runner(p, **kwargs)


def test_snapshot_stride_must_be_positive():
    p = GaParams(n=20, k=2, mu=6, p_c=0.5, chi=1.0, seed=8)
    for stride in (0, -3):
        with pytest.raises(ValueError):
            run_figure1(p, replicates=10, stride=stride)


# ---------------------------------------------------------------------------
# bound sweep


def test_sweep_witness_sizes():
    assert sweep_grid_ys(4) == (2, 3)
    assert sweep_grid_ys(8) == (4, 6, 7)
    assert sweep_grid_ys(16) == (8, 12, 15)
    for mu in (3, 2, 0):
        with pytest.raises(SettingError, match="needs every mu >= 4"):
            sweep_grid_ys(mu)


def test_bound_sweep_cell_plan_and_verdicts():
    p = GaParams(n=60, k=3, mu=4, p_c=0.5, chi=1.0, seed=4)
    cells = run_bound_sweep(p, mus=(4,), trials=2000)
    plan = [(c.estimate.event, c.estimate.y, c.delta) for c in cells]
    assert plan == [
        (EventClass.CROSSOVER_CLOSE, 2, 1),
        (EventClass.CROSSOVER_CLOSE, 3, 1),
        (EventClass.CROSSOVER_DISTANT, 2, 2),
        (EventClass.CROSSOVER_DISTANT, 3, 2),
        (EventClass.MUTATION_ONLY, 2, 1),
        (EventClass.MUTATION_ONLY, 3, 1),
        (EventClass.CROSSOVER_CLOSE, 4, 0),
    ]
    for c in cells:
        assert c.estimate.trials == 2000
        assert c.satisfied is True
        assert c.checks  # every cell carries at least one explicit check
    mono = cells[-1]
    assert mono.estimate.y == 4
    assert mono.estimate.p_plus_hat == 0.0  # nothing outside the single species
    assert mono.estimate.p_minus_hat > 0.0
    assert mono.checks[0].analytic_value == pytest.approx(p.k / p.n, rel=1e-12)


def test_bound_sweep_marks_scarce_cells_inconclusive_without_failing():
    p = GaParams(n=60, k=3, mu=4, p_c=0.5, chi=1.0, seed=4)
    cells = run_bound_sweep(p, mus=(4,), trials=50)
    assert len(cells) == 7
    assert all(c.satisfied is None for c in cells)


def test_bound_sweep_rejects_tiny_populations():
    p = GaParams(n=60, k=3, mu=4, p_c=0.5, chi=1.0, seed=4)
    with pytest.raises(ValueError):
        run_bound_sweep(p, mus=(2,), trials=100)


# Every cell of a two-size sweep: its descriptor, its accepted trials, its
# attempts and every field of every check, in cell order.  Any change to a draw, a bound, a check's
# float expression or the cell plan changes them.
_SWEEP_PIN = [
    ("kind=close mu=4 y=2 delta=1 pc=1.0 n=60 k=3 chi=1.0", 500, 500, [
        ("close_decrease mu=4 y=2", 0.06383865438183535, 0.066, 0.011103512957618413, True),
    ]),
    ("kind=close mu=4 y=3 delta=1 pc=1.0 n=60 k=3 chi=1.0", 500, 500, [
        ("close_decrease mu=4 y=3", 0.05129891869968912, 0.066, 0.011103512957618413, True),
    ]),
    ("kind=distant mu=4 y=2 delta=2 pc=1.0 n=60 k=3 chi=1.0", 500, 1050, [
        ("distant_decrease_vs_double_increase mu=4 y=2", 0.016, 0.102, 0.013534843922262273, True),
    ]),
    ("kind=distant mu=4 y=3 delta=2 pc=1.0 n=60 k=3 chi=1.0", 500, 1366, [
        ("distant_decrease_vs_double_increase mu=4 y=3", 0.008, 0.126, 0.01484075469779081, True),
    ]),
    ("kind=mutation mu=4 y=2 delta=1 pc=0.0 n=60 k=3 chi=1.0", 500, 500, [
        ("mutation_decrease mu=4 y=2", 0.07295846215066897, 0.078, 0.011992997957141493, True),
        ("mutation_increase_band mu=4 y=2", 0.07295846215066897, 0.07, 0.011410521460476731, True),
    ]),
    ("kind=mutation mu=4 y=3 delta=1 pc=0.0 n=60 k=3 chi=1.0", 500, 500, [
        ("mutation_decrease mu=4 y=3", 0.05471884661300173, 0.062, 0.010784804124322332, True),
        ("mutation_increase_band mu=4 y=3", 0.05471884661300173, 0.06, 0.010620734437881401, True),
    ]),
    ("kind=monomorphic mu=4 y=4 delta=0 pc=1.0 n=60 k=3 chi=1.0", 500, 500, [
        ("monomorphic_decrease_scale mu=4", 0.05, 0.026, 0.007116740827092132, True),
    ]),
    ("kind=close mu=8 y=4 delta=1 pc=1.0 n=60 k=3 chi=1.0", 500, 500, [
        ("close_decrease mu=8 y=4", 0.07093183820203927, 0.08, 0.01213260071048248, True),
    ]),
    ("kind=close mu=8 y=6 delta=1 pc=1.0 n=60 k=3 chi=1.0", 500, 500, [
        ("close_decrease mu=8 y=6", 0.05699879855521013, 0.082, 0.012269963325128565, True),
    ]),
    ("kind=close mu=8 y=7 delta=1 pc=1.0 n=60 k=3 chi=1.0", 500, 500, [
        ("close_decrease mu=8 y=7", 0.03435760912911277, 0.052, 0.00992935043192655, True),
    ]),
    ("kind=distant mu=8 y=4 delta=2 pc=1.0 n=60 k=3 chi=1.0", 500, 1018, [
        ("distant_decrease_vs_double_increase mu=8 y=4", 0.012, 0.126, 0.01484075469779081, True),
    ]),
    ("kind=distant mu=8 y=6 delta=2 pc=1.0 n=60 k=3 chi=1.0", 500, 1392, [
        ("distant_decrease_vs_double_increase mu=8 y=6", 0.012, 0.166, 0.016639951923007473, True),
    ]),
    ("kind=distant mu=8 y=7 delta=2 pc=1.0 n=60 k=3 chi=1.0", 500, 2322, [
        ("distant_decrease_vs_double_increase mu=8 y=7", 0.008, 0.174, 0.016954291492126704, True),
    ]),
    ("kind=mutation mu=8 y=4 delta=1 pc=0.0 n=60 k=3 chi=1.0", 500, 500, [
        ("mutation_decrease mu=8 y=4", 0.08106495794518774, 0.088, 0.012669333052690659, True),
        ("mutation_increase_band mu=8 y=4", 0.08106495794518774, 0.09, 0.012798437404620925, True),
    ]),
    ("kind=mutation mu=8 y=6 delta=1 pc=0.0 n=60 k=3 chi=1.0", 500, 500, [
        ("mutation_decrease mu=8 y=6", 0.0607987184588908, 0.074, 0.011706750189527408, True),
        ("mutation_increase_band mu=8 y=6", 0.0607987184588908, 0.044, 0.009172131704244111, True),
    ]),
    ("kind=mutation mu=8 y=7 delta=1 pc=0.0 n=60 k=3 chi=1.0", 500, 500, [
        ("mutation_decrease mu=8 y=7", 0.035465919101019636, 0.068, 0.011258419071965654, True),
        ("mutation_increase_band mu=8 y=7", 0.035465919101019636, 0.048, 0.009559916317625379, True),
    ]),
    ("kind=monomorphic mu=8 y=8 delta=0 pc=1.0 n=60 k=3 chi=1.0", 500, 500, [
        ("monomorphic_decrease_scale mu=8", 0.05, 0.008, 0.003983967871356395, True),
    ]),
]


def test_bound_sweep_matches_pinned_cells():
    p = GaParams(n=60, k=3, mu=4, p_c=0.5, chi=1.0, seed=4)
    cells = run_bound_sweep(p, mus=(4, 8), trials=500)
    got = [
        (c.descriptor, c.estimate.trials, c.estimate.attempts, [astuple(ch) for ch in c.checks])
        for c in cells
    ]
    assert got == _SWEEP_PIN


def test_monomorphic_decrease_scale_tracks_k_over_n():
    # With a single plateau species, decreases happen when mutation jumps a
    # member off the plateau; the measured rate lands near k/n in scale.
    rows = []
    for n in (50, 100):
        p = GaParams(n=n, k=3, mu=6, p_c=0.5, chi=1.0, seed=12)
        pop = init_monomorphic_plateau(p, make_rng(12, 0))
        est = estimate_transition(
            p, pop, pop.members[0], EventClass.MUTATION_ONLY, 30_000, make_rng(12, 1)
        )
        rows.append(est.p_minus_hat * n / p.k)
    for ratio in rows:
        assert ratio > 0.0


def test_experiment_results_fit_population_invariants():
    # Census sanity for the two-species construction feeding the sweep.
    p = GaParams(n=100, k=3, mu=8, p_c=1.0, chi=1.0, seed=14)
    pop, focal, other = two_species_population(p, 6, 2, make_rng(14, 0))
    assert Counter(pop.members) == {focal: 6, other: 2}
    assert jump_fitness(focal, p.n, p.k) == jump_fitness(other, p.n, p.k) == p.n


# ---------------------------------------------------------------------------
# streams: cell i owns stream i


def record_streams(monkeypatch) -> list[tuple[int, int]]:
    """Wraps the runners' stream factory; returns the list of ``(seed, stream)``
    pairs it is asked for, in order."""
    made: list[tuple[int, int]] = []

    def recording(seed, stream=0):
        made.append((seed, stream))
        return make_rng(seed, stream)

    monkeypatch.setattr(experiments, "make_rng", recording)
    return made


_CELL_PARAMS = GaParams(n=20, k=2, mu=6, p_c=0.5, chi=1.0, seed=8)
_RECORDS = {
    "run": lambda r: experiments.run_replicates(_CELL_PARAMS, r, StopCondition(max_iterations=300)),
    "takeover": lambda r: run_takeover(_CELL_PARAMS, r).replicates,
    "survival": lambda r: run_survival(_CELL_PARAMS, r, lam=0.75, t_max=50).replicates,
    "figure1": lambda r: tuple(run_figure1(_CELL_PARAMS, r, max_iterations=200)),
}


@pytest.mark.parametrize("runner", sorted(_RECORDS))
def test_replicate_r_owns_stream_r_and_a_shorter_run_is_a_prefix(monkeypatch, runner):
    # Resuming or splitting a run relies on both: each replicate's record
    # depends only on (seed, r), and fewer replicates give the leading records.
    made = record_streams(monkeypatch)
    five = _RECORDS[runner](5)
    assert made == [(8, r) for r in range(5)]
    assert [rec.replicate for rec in five] == list(range(5))
    made.clear()
    three = _RECORDS[runner](3)
    assert made == [(8, r) for r in range(3)]
    assert five[:3] == three


def test_sweep_cell_i_owns_stream_i_and_a_shorter_mu_list_is_a_prefix(monkeypatch):
    p = GaParams(n=60, k=3, mu=4, p_c=0.5, chi=1.0, seed=4)
    made = record_streams(monkeypatch)
    both = run_bound_sweep(p, mus=(4, 6), trials=20)
    assert len(both) == len(experiments.sweep_plan(p, (4, 6))) == 14
    assert made == [(4, i) for i in range(14)]
    made.clear()
    first = run_bound_sweep(p, mus=(4,), trials=20)
    assert made == [(4, i) for i in range(7)]
    assert both[:7] == first
    made.clear()
    # An empty list plans no cell, so it makes no stream and returns no cell.
    assert run_bound_sweep(p, mus=(), trials=20) == ()
    assert made == []
