"""Monte Carlo experiments that exercise the production GA step against the bounds.

Conventions shared by every runner:

* Replicates and grid cells run one after another through :func:`_cells`.
  Cell i owns the private random stream ``make_rng(seed, stream=i)``, so its
  result depends only on ``(seed, i)``, results come back in index order, and
  a run of fewer cells is a prefix of a longer one.
* Conditioning on an event class is done by rejection: the production
  ``ga_step`` runs verbatim and trials whose realized event class differs from
  the target are discarded.  Configurations choose ``p_c`` per target event
  (1 for crossover events, 0 for mutation-only) purely for acceptance rate;
  the conditional transition law given the event class does not depend on p_c.
* Replicates that hit an iteration cap are reported with a censoring flag,
  excluded from means, and included in medians (as +infinity) only when more
  than half the replicates completed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, TypeVar

from .analysis import (
    close_crossover_decrease_bound,
    mutation_only_increase_oscale,
    mutation_only_transition_bounds,
    survival_constant,
)
from .core import (
    GaParams,
    RandomStream,
    SettingError,
    _floyd_mask,
    check_at_least,
    jump_fitness,
    make_rng,
)
from .diversity import PairwiseDistanceTracker, SpeciesTracker
from .ga import (
    EventClass,
    Population,
    StopCondition,
    ga_step,
    init_monomorphic_plateau,
    init_uniform,
    run,
    steps,
)


# ---------------------------------------------------------------------------
# the cell map: replicate or sweep cell i on stream i

_T = TypeVar("_T")


def _cells(seed: int, count: int, cell: Callable[[int, RandomStream], _T]) -> list[_T]:
    """``cell(i, make_rng(seed, stream=i))`` for i = 0..count-1, in index order.
    It judges no setting: each runner checks its own before calling it."""
    return [cell(i, make_rng(seed, stream=i)) for i in range(count)]


# ---------------------------------------------------------------------------
# witness populations


def two_species_population(
    params: GaParams, y: int, delta: int, rng: RandomStream
) -> tuple[Population, int, int]:
    """Plateau population of y copies of a focal genotype plus mu-y copies of a
    second genotype at Hamming distance 2*delta (both with exactly k zeros).

    Draw order, each draw a :func:`~jumpga.core._floyd_mask` subset: the focal
    zero set (k of n), then delta of those zeros to fill, then delta of the
    focal ones to clear; the last two pick ranks in the ascending lists of the
    focal's zero and one positions.
    """
    n, k, mu = params.n, params.k, params.mu
    if not 1 <= y <= mu - 1:
        raise ValueError(f"y must lie in [1, mu-1], got y={y}, mu={mu}")
    if not 1 <= delta <= min(k, n - k):
        raise ValueError(f"delta must lie in [1, min(k, n-k)], got {delta}")
    zero_mask = _floyd_mask(rng, n, k)
    zeros = _set_bits(zero_mask)
    bits = ((1 << n) - 1) ^ zero_mask
    other_bits = bits
    for idx in _set_bits(_floyd_mask(rng, k, delta)):
        other_bits ^= 1 << zeros[idx]
    for idx in _set_bits(_floyd_mask(rng, n - k, delta)):
        for z in zeros:  # the idx-th one: step over the zeros at or below it
            if z <= idx:
                idx += 1
        other_bits ^= 1 << idx
    members = [bits] * y + [other_bits] * (mu - y)
    fits = [jump_fitness(bits, n, k)] * y + [jump_fitness(other_bits, n, k)] * (mu - y)
    pop = Population(members, fits)
    return pop, bits, other_bits


def _set_bits(mask: int) -> list[int]:
    """Positions of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# single-step estimators


def _count_moves(
    params: GaParams, population: Population, species: int, event: EventClass | None,
    trials: int, rng: RandomStream,
) -> tuple[int, int, int, int]:
    """Single steps from ``population`` until ``trials`` are accepted or
    ``50 * trials`` are taken; a step is accepted when its event class is
    ``event`` (every step when ``event`` is None, which the cap never stops).
    Returns ``(accepted, attempts, ups, downs)``, ``ups``/``downs`` counting
    accepted steps that grow/shrink ``species``.

    ``population`` is never written.  Every trial steps one copy of it, which
    is then put back: the replaced member, whose fitness was the minimum
    ``low``, and the copy's ``low`` and ``tied``.
    """
    check_at_least(1, trials=trials)
    mu = params.mu
    work = replace(population)
    members, fits = work.members, work.fitnesses
    low, tied = work.low, work.tied
    accepted = attempts = ups = downs = 0
    cap = 50 * trials
    while accepted < trials and attempts < cap:
        _, trace = ga_step(work, params, rng)
        attempts += 1
        r = trace.removed_index
        if r < mu:
            members[r] = trace.removed_genotype
            fits[r] = low
            work.low = low
            work.tied = tied
        if event is not None and trace.event is not event:
            continue
        accepted += 1
        if r == mu:
            continue
        dy = (trace.offspring == species) - (trace.removed_genotype == species)
        if dy > 0:
            ups += 1
        elif dy < 0:
            downs += 1
    return accepted, attempts, ups, downs


@dataclass(frozen=True)
class ConditionedEstimate:
    """Conditioned transition estimate for one population/event cell.

    ``trials`` is the accepted count (the estimator denominator);
    ``attempts`` counts all production steps sampled.  Cells with fewer than
    100 accepted trials carry ``inconclusive=True`` and should not be read as
    evidence either way.
    """

    event: EventClass
    y: int
    p_plus_hat: float
    p_minus_hat: float
    stderr_plus: float
    stderr_minus: float
    trials: int
    attempts: int
    inconclusive: bool


def estimate_transition(
    params: GaParams,
    population: Population,
    species: int,
    event: EventClass,
    trials: int,
    rng: RandomStream,
) -> ConditionedEstimate:
    """Estimate one-step increase/decrease probabilities for ``species``
    conditioned on ``event``, by rejection sampling over the production step.

    Takes single steps from the same start population until ``trials`` steps
    of class ``event`` are accepted or ``50 * trials`` steps are taken.  So an
    event rarer than 1 in 50 steps usually stops at that cap with fewer
    accepted trials than asked for, and an impossible one with none; the
    result reports both counts.
    """
    accepted, attempts, ups, downs = _count_moves(params, population, species, event, trials, rng)
    y = population.members.count(species)
    if accepted:
        pp = ups / accepted
        pm = downs / accepted
        sp = math.sqrt(pp * (1 - pp) / accepted)
        sm = math.sqrt(pm * (1 - pm) / accepted)
    else:
        pp = pm = sp = sm = 0.0
    return ConditionedEstimate(event, y, pp, pm, sp, sm, accepted, attempts, accepted < 100)


class MonteCarloFrequency(NamedTuple):
    """Frequency of a binary outcome with its binomial standard error."""

    frequency: float
    stderr: float
    hits: int
    trials: int


def sample_optimum_creation_frequency(
    a: int,
    b: int,
    n: int,
    p_m: float,
    trials: int,
    seed: int,
    stream: int = 0,
) -> MonteCarloFrequency:
    """Monte Carlo frequency of reaching the all-ones string with one
    crossover-plus-mutation of the length-``n`` parents ``(a, b)``.

    Trial i takes uniforms 2n*i ... 2n*i + 2n - 1 of the numpy generator
    backing ``make_rng(seed, stream)``: first its n crossover coins (position
    j comes from ``a`` when its coin is below 1/2), then its n mutation coins
    (position j flips when its coin is below ``p_m``), position 0 first in
    each.  So the hit count is that of one ``generator.random((trials, 2,
    n))`` draw, and a run of T trials is the prefix of any longer run.  The
    draw is taken a slab of trials at a time, sized only to hold 8 MiB of
    uniforms.  Per trial the law is that of ``standard_bit_mutation(
    uniform_crossover(a, b))`` with the reference operators of
    ``tests/reference.py``, which draw differently.  It imports numpy itself,
    after its check, as :func:`jumpga.core.make_rng` does.
    """
    check_at_least(1, trials=trials)
    import numpy as np

    gen = make_rng(seed, stream).generator
    a_row = np.array([(a >> i) & 1 for i in range(n)], dtype=bool)
    b_row = np.array([(b >> i) & 1 for i in range(n)], dtype=bool)
    slab = max(1, (1 << 19) // n)
    hits = 0
    for start in range(0, trials, slab):
        coins = gen.random((min(slab, trials - start), 2, n))
        child = np.where(coins[:, 0] < 0.5, a_row, b_row)
        hits += int((child ^ (coins[:, 1] < p_m)).all(axis=1).sum())
    freq = hits / trials
    stderr = math.sqrt(freq * (1 - freq) / trials)
    return MonteCarloFrequency(freq, stderr, hits, trials)


# ---------------------------------------------------------------------------
# takeover


def takeover_reference(params: GaParams) -> float:
    """Reference scale mu*n + mu^2*ln(mu) for the time until the largest
    species first drops to half the population."""
    return params.mu * params.n + params.mu * params.mu * math.log(params.mu)


@dataclass(frozen=True)
class TakeoverReplicate:
    replicate: int
    hitting_time: int | None
    censored: bool


@dataclass(frozen=True)
class TakeoverSummary:
    replicates: tuple[TakeoverReplicate, ...]
    mean_hitting_time: float | None
    median_hitting_time: float | None
    reference: float
    mean_to_reference_ratio: float | None
    censored: int
    cap: int


def _median(values) -> float:
    """The middle value, or the mean of the two middle values, of the sorted
    ``values``: ``statistics.median`` bit for bit, without its import."""
    data = sorted(values)
    half = len(data) // 2
    return float(data[half] if len(data) % 2 else (data[half - 1] + data[half]) / 2)


def _censored_stats(values: list[int | None]) -> tuple[float | None, float | None]:
    completed = [v for v in values if v is not None]
    mean = sum(completed) / len(completed) if completed else None
    median = None
    if len(completed) * 2 > len(values):
        median = _median(v if v is not None else math.inf for v in values)
    return mean, median


def _takeover_cap(params: GaParams, max_iterations: int | None) -> int:
    """The takeover phase's step cap: ``max_iterations``, judged, or by
    default 100 times the takeover reference."""
    check_at_least(0, max_iterations=max_iterations)
    return math.ceil(100 * takeover_reference(params)) if max_iterations is None else max_iterations


def _take_over(
    params: GaParams, rng: RandomStream, cap: int
) -> tuple[Population, SpeciesTracker, int | None]:
    """From a monomorphic plateau start drawn from ``rng``, step until the
    largest species first holds at most mu/2 members; returns ``(population,
    species tracker, step count)`` then, or with a count of None after ``cap``
    steps."""
    pop = init_monomorphic_plateau(params, rng)
    tracker = SpeciesTracker(pop)
    for t, pop, trace in steps(pop, params, rng, cap):
        if tracker.apply(trace) and 2 * tracker.largest <= params.mu:
            return pop, tracker, t
    return pop, tracker, None


def run_takeover(
    params: GaParams, replicates: int, max_iterations: int | None = None
) -> TakeoverSummary:
    """From a monomorphic plateau start, time until largest species <= mu/2
    (cap default: 100 times the takeover reference)."""
    check_at_least(1, replicates=replicates)
    cap = _takeover_cap(params, max_iterations)

    def replicate(r: int, rng: RandomStream) -> TakeoverReplicate:
        _, _, hit = _take_over(params, rng, cap)
        return TakeoverReplicate(r, hit, hit is None)

    reps = _cells(params.seed, replicates, replicate)
    mean, median = _censored_stats([rr.hitting_time for rr in reps])
    reference = takeover_reference(params)
    return TakeoverSummary(
        tuple(reps),
        mean,
        median,
        reference,
        (mean / reference) if mean is not None else None,
        sum(rr.censored for rr in reps),
        cap,
    )


# ---------------------------------------------------------------------------
# survival (regrowth after takeover)


@dataclass(frozen=True)
class SurvivalReplicate:
    replicate: int
    takeover_time: int | None
    takeover_censored: bool
    monitored_iterations: int
    focal_hit_time: int | None
    max_hit_time: int | None
    optimum_interrupted: bool


@dataclass(frozen=True)
class SurvivalSummary:
    replicates: tuple[SurvivalReplicate, ...]
    threshold: int
    monitored_replicates: int
    focal_excursions: int
    max_excursions: int
    focal_excursion_frequency: float | None
    max_excursion_frequency: float | None
    analytic_tail: float
    tail_is_vacuous: bool
    t_max: int


def run_survival(
    params: GaParams, replicates: int, lam: float, t_max: int, max_iterations: int | None = None
) -> SurvivalSummary:
    """After takeover (largest species first <= mu/2), monitor for t_max steps
    whether the species that was largest at that moment -- and separately the
    running maximum over all species -- ever regrows to lam*mu: to
    ceil(lam*mu) members, and always to more than mu/2.

    Monitoring stops early once the focal outcome is decided or if the
    optimum is created (the plateau regime of interest ends there); such
    replicates are flagged, not dropped.  ``max_iterations`` caps the takeover
    phase as in :func:`run_takeover`.  The analytic tail needs p_c > 0, so a
    zero p_c is rejected, as is lam outside (1/2, 1), before the first draw.
    """
    check_at_least(1, replicates=replicates, t_max=t_max)
    cap = _takeover_cap(params, max_iterations)
    c_surv = survival_constant(lam, params.chi, params.p_c)
    # The tolerance keeps an exact lam*mu from rounding up; the floor of
    # mu//2 + 1 keeps a lam within it of 1/2 from rounding down to mu/2.
    threshold = max(math.ceil(lam * params.mu - 1e-9), params.mu // 2 + 1)

    def replicate(r: int, rng: RandomStream) -> SurvivalReplicate:
        pop, tracker, hit = _take_over(params, rng, cap)
        if hit is None:
            return SurvivalReplicate(r, None, True, 0, None, None, False)
        focal = tracker.largest_class()
        focal_hit = max_hit = None
        interrupted = False
        m = 0
        for m, _, trace in steps(pop, params, rng, t_max):
            if trace.optimum_created:
                interrupted = True
                break
            # An unchanged step repeats the last state checked, and no
            # species meets the threshold at takeover.
            if not tracker.apply(trace):
                continue
            if max_hit is None and tracker.largest >= threshold:
                max_hit = m
            if tracker.count(focal) >= threshold:
                focal_hit = m
                break
        return SurvivalReplicate(r, hit, False, m, focal_hit, max_hit, interrupted)

    reps = _cells(params.seed, replicates, replicate)
    monitored = [rr for rr in reps if not rr.takeover_censored]
    focal_exc = sum(rr.focal_hit_time is not None for rr in monitored)
    max_exc = sum(rr.max_hit_time is not None for rr in monitored)
    tail = t_max * t_max * math.exp(-c_surv * params.mu)
    return SurvivalSummary(
        tuple(reps),
        threshold,
        len(monitored),
        focal_exc,
        max_exc,
        focal_exc / len(monitored) if monitored else None,
        max_exc / len(monitored) if monitored else None,
        tail,
        tail >= 1.0,
        t_max,
    )


# ---------------------------------------------------------------------------
# pairwise-distance time series (diversity emergence)


@dataclass(frozen=True)
class DistanceSeriesRun:
    """One replicate's series as its unchanged stretches: ``runs`` holds
    ``(iterations, frequencies)``, where ``iterations`` is a range of row
    times, stepping by the stride, over which the population's multiset did
    not change, and ``frequencies`` has one entry per item of ``distances``.
    Each stretch starts at the first row time after a step that changed the
    multiset, so consecutive stretches may still hold equal values."""

    replicate: int
    iterations: int
    found_optimum: bool
    distances: tuple[int, ...]
    runs: tuple[tuple[range, tuple[float, ...]], ...]

    @property
    def rows(self) -> tuple[tuple[int, tuple[float, ...]], ...]:
        """One ``(iteration, frequencies)`` per row, each stretch's tuple
        object repeated over its rows."""
        return tuple((t, freqs) for times, freqs in self.runs for t in times)


def run_figure1(
    params: GaParams, replicates: int, stride: int | None = None, max_iterations: int | None = None
) -> list[DistanceSeriesRun]:
    """Relative frequencies of pairwise Hamming distances over time.

    Each replicate starts from a monomorphic plateau population and runs until
    the optimum is created (or the iteration cap).  Rows snapshot the
    population *before* the optimum appears, so every pairwise distance is
    even and at most 2k; row 0 is the initial population.  Rows come every
    ``stride`` steps (default 1 up to mu = 64, else 10); the cap defaults to
    10**7 iterations.  A replicate records one stretch per change of the
    multiset, not one row per step: the frequencies are computed once per
    stretch, at its first row.
    """
    check_at_least(1, replicates=replicates, stride=stride)
    check_at_least(0, max_iterations=max_iterations)
    distances = tuple(range(0, 2 * params.k + 1, 2))
    if stride is None:
        stride = 1 if params.mu <= 64 else 10
    cap = 10_000_000 if max_iterations is None else max_iterations

    def replicate(r: int, rng: RandomStream) -> DistanceSeriesRun:
        pop = init_monomorphic_plateau(params, rng)
        tracker = PairwiseDistanceTracker(pop)
        runs = []
        start, freqs = 0, tracker.frequencies(distances)
        changed = found = False
        t = 0
        for t, _, trace in steps(pop, params, rng, cap):
            if trace.optimum_created:
                found = True
                break
            changed = tracker.apply(trace) or changed
            if changed and t % stride == 0:
                runs.append((range(start, t, stride), freqs))
                start, freqs = t, tracker.frequencies(distances)
                changed = False
        runs.append((range(start, t if found else t + 1, stride), freqs))
        return DistanceSeriesRun(r, t, found, distances, tuple(runs))

    return _cells(params.seed, replicates, replicate)


# ---------------------------------------------------------------------------
# crossover vs mutation-only comparison


@dataclass(frozen=True)
class RunRecord:
    replicate: int
    iterations: int
    evaluations: int
    stop_reason: str


@dataclass(frozen=True)
class ComparisonArm:
    label: str
    p_c: float
    records: tuple[RunRecord, ...]
    mean_evaluations: float | None
    median_evaluations: float | None
    censored: int


@dataclass(frozen=True)
class ComparisonSummary:
    arms: tuple[ComparisonArm, ...]
    evaluation_ratio: float | None  # mutation-only median / crossover median
    cap: int


def run_replicates(params: GaParams, replicates: int, stop: StopCondition) -> tuple[RunRecord, ...]:
    """Runs from uniform random starts until ``stop``; replicate r uses stream r."""
    check_at_least(1, replicates=replicates)

    def replicate(r: int, rng: RandomStream) -> RunRecord:
        res = run(init_uniform(params, rng), params, stop, rng)
        return RunRecord(r, res.iterations, res.evaluations, res.stop_reason)

    return tuple(_cells(params.seed, replicates, replicate))


def run_comparison(
    params: GaParams, replicates: int, max_iterations: int | None = None
) -> ComparisonSummary:
    """Paired comparison: configured-p_c arm vs mutation-only arm (p_c = 0).

    Replicate i of both arms uses stream i, so the arms face the same
    initialization randomness.  Runs start from uniform random populations
    and stop at the optimum or at the cap (default 50 * n^k iterations).
    The cap is judged by StopCondition, and ``replicates`` by the first arm's
    :func:`run_replicates`, before the first draw.
    """
    cap = 50 * params.n**params.k if max_iterations is None else max_iterations
    stop = StopCondition(max_iterations=cap)
    arms: list[ComparisonArm] = []
    for label, pc in (("crossover", params.p_c), ("mutation_only", 0.0)):
        records = run_replicates(replace(params, p_c=pc), replicates, stop)
        evals = [rec.evaluations if rec.stop_reason == "optimum_found" else None for rec in records]
        mean, median = _censored_stats(evals)
        arms.append(
            ComparisonArm(
                label,
                pc,
                records,
                mean,
                median,
                sum(v is None for v in evals),
            )
        )
    crossover_arm, mutation_arm = arms
    ratio = None
    if crossover_arm.median_evaluations and mutation_arm.median_evaluations is not None:
        ratio = mutation_arm.median_evaluations / crossover_arm.median_evaluations
    return ComparisonSummary(tuple(arms), ratio, cap)


# ---------------------------------------------------------------------------
# bound sweep over (mu, y, event) cells


# kind -> (event the cell conditions on, half the distance between its two
# species, p_c); a delta of 0 starts from a monomorphic plateau instead.
_SWEEP_KINDS = {
    "close": (EventClass.CROSSOVER_CLOSE, 1, 1.0),
    "distant": (EventClass.CROSSOVER_DISTANT, 2, 1.0),
    "mutation": (EventClass.MUTATION_ONLY, 1, 0.0),
    "monomorphic": (EventClass.CROSSOVER_CLOSE, 0, 1.0),
}


@dataclass(frozen=True)
class BoundReport:
    """Analytic value paired with the Monte Carlo estimate that tests it."""

    name: str
    analytic_value: float
    estimate: float
    stderr: float
    satisfied: bool


@dataclass(frozen=True)
class SweepCell:
    """One sweep cell: its estimate (which carries the cell's event and y)
    and its bound checks, the check of the cell's bound first."""

    mu: int
    delta: int
    estimate: ConditionedEstimate
    descriptor: str
    checks: tuple[BoundReport, ...]

    @property
    def satisfied(self) -> bool | None:
        if self.estimate.inconclusive:
            return None
        return all(ch.satisfied for ch in self.checks)


def sweep_grid_ys(mu: int) -> tuple[int, ...]:
    """Witness sizes ceil(mu/2), ceil(3mu/4), mu-1 (deduplicated, sorted);
    SettingError for a mu below 4, where ceil(3mu/4) would reach mu."""
    if mu < 4:
        raise SettingError(f"population-size grid needs every mu >= 4, got {mu}")
    return tuple(sorted({math.ceil(mu / 2), math.ceil(3 * mu / 4), mu - 1}))


def sweep_plan(params: GaParams, mus: tuple[int, ...]) -> list[tuple[str, int, int]]:
    """The sweep's cells ``(kind, mu, y)`` in stream order: for each mu, the
    kinds of ``_SWEEP_KINDS`` in turn, each over the witness sizes, except
    the monomorphic kind, whose one cell has y = mu.  Raises SettingError for
    a k too small for the widest two-species cell, and :func:`sweep_grid_ys`
    does for a mu below 4."""
    widest = max(delta for _, delta, _ in _SWEEP_KINDS.values())
    if params.k < widest:
        raise SettingError(f"sweep needs k >= {widest} for its distant cells, got k={params.k}")
    plan = []
    for mu in mus:
        for kind, (_, delta, _) in _SWEEP_KINDS.items():
            plan += [(kind, mu, y) for y in (sweep_grid_ys(mu) if delta else (mu,))]
    return plan


def _sweep_checks(
    kind: str, mu: int, y: int, params: GaParams, est: ConditionedEstimate
) -> tuple[BoundReport, ...]:
    """The bound checks of one sweep cell, the check of the cell's bound first."""
    n, chi, margin = params.n, params.chi, 3.0
    p_plus, p_minus = est.p_plus_hat, est.p_minus_hat
    s_plus, s_minus = est.stderr_plus, est.stderr_minus

    def report(name: str, bound: float, increase: bool, satisfied: bool) -> BoundReport:
        hat, stderr = (p_plus, s_plus) if increase else (p_minus, s_minus)
        return BoundReport(name, bound, hat, stderr, satisfied)

    at = f"mu={mu} y={y}"
    if kind == "close":
        bound = close_crossover_decrease_bound(y, mu, chi, n)
        return (report(f"close_decrease {at}", bound, False, p_minus >= bound - margin * s_minus),)
    if kind == "distant":
        required = 2 * p_plus
        tol = margin * (s_plus + s_minus)
        return (
            report(f"distant_decrease_vs_double_increase {at}", required, False, p_minus >= required - tol),
        )
    if kind == "mutation":
        lead, lower = mutation_only_transition_bounds(y, mu, chi, n)
        oscale = mutation_only_increase_oscale(y, mu, n)
        return (
            report(f"mutation_decrease {at}", lower, False, p_minus >= lower - margin * s_minus),
            report(
                f"mutation_increase_band {at}", lead, True,
                abs(p_plus - lead) <= margin * s_plus + 10.0 * oscale,
            ),
        )
    # monomorphic: the decrease scale k/n is reported, only positivity asserted
    return (report(f"monomorphic_decrease_scale mu={mu}", params.k / n, False, p_minus > 0.0),)


def run_bound_sweep(params: GaParams, mus: tuple[int, ...], trials: int) -> tuple[SweepCell, ...]:
    """Monte Carlo check of every per-event transition bound over a (mu, y) grid.

    Cell i of :func:`sweep_plan` runs on stream i: it conditions on its kind's
    event from its kind's start population (``_SWEEP_KINDS``), targets
    ``trials`` accepted steps and carries the checks of its kind.
    """
    check_at_least(1, trials=trials)
    plan = sweep_plan(params, mus)

    def cell(idx: int, rng: RandomStream) -> SweepCell:
        kind, mu, y = plan[idx]
        event, delta, pc = _SWEEP_KINDS[kind]
        cell_params = replace(params, mu=mu, p_c=pc)
        if delta:
            pop, focal, _ = two_species_population(cell_params, y, delta, rng)
        else:
            pop = init_monomorphic_plateau(cell_params, rng)
            focal = pop.members[0]
        est = estimate_transition(cell_params, pop, focal, event, trials, rng)
        descriptor = f"kind={kind} mu={mu} y={y} delta={delta} pc={pc} n={params.n} k={params.k} chi={params.chi}"
        return SweepCell(mu, delta, est, descriptor, _sweep_checks(kind, mu, y, params, est))

    return tuple(_cells(params.seed, len(plan), cell))
