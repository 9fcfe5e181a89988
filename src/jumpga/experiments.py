"""Monte Carlo experiments that exercise the production GA step against the bounds.

Conventions shared by every runner:

* Replicates and grid cells run one after another.  Each owns the private
  random stream ``make_rng(seed, stream=index)``, so its result depends only
  on ``(seed, index)``, and results are folded in index order.
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
import statistics
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .analysis import (
    BoundReport,
    close_crossover_decrease_bound,
    mutation_only_increase_oscale,
    mutation_only_transition_bounds,
    survival_constant,
)
from .core import (
    GaParams,
    Genotype,
    RandomStream,
    SettingError,
    check_at_least,
    jump_fitness,
    make_rng,
    random_index_subset,
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
# witness populations


def two_species_population(
    params: GaParams, y: int, delta: int, rng: RandomStream
) -> tuple[Population, Genotype, Genotype]:
    """Plateau population of y copies of a focal genotype plus mu-y copies of a
    second genotype at Hamming distance 2*delta (both with exactly k zeros).

    Draw order: the focal zero set (k of n), then delta of those zeros to fill,
    then delta of the focal ones to clear.
    """
    n, k, mu = params.n, params.k, params.mu
    if not 1 <= y <= mu - 1:
        raise ValueError(f"y must lie in [1, mu-1], got y={y}, mu={mu}")
    if not 1 <= delta <= min(k, n - k):
        raise ValueError(f"delta must lie in [1, min(k, n-k)], got {delta}")
    zeros = sorted(random_index_subset(rng, n, k))
    bits = (1 << n) - 1
    for i in zeros:
        bits ^= 1 << i
    focal = Genotype(bits, n)
    zero_set = set(zeros)
    ones = [i for i in range(n) if i not in zero_set]
    other_bits = bits
    for idx in random_index_subset(rng, k, delta):
        other_bits ^= 1 << zeros[idx]
    for idx in random_index_subset(rng, n - k, delta):
        other_bits ^= 1 << ones[idx]
    other = Genotype(other_bits, n)
    members = (focal,) * y + (other,) * (mu - y)
    fits = tuple(jump_fitness(g, k) for g in members)
    pop = Population(members, fits, 0)
    return pop, focal, other


# ---------------------------------------------------------------------------
# single-step estimators


def _count_moves(
    params: GaParams, population: Population, species: Genotype, event: EventClass | None,
    trials: int, cap: int, rng: RandomStream,
) -> tuple[int, int, int, int]:
    """Single steps from ``population`` until ``trials`` are accepted or ``cap``
    are taken; a step is accepted when its event class is ``event`` (every
    step when ``event`` is None).  Returns ``(accepted, attempts, ups, downs)``,
    ``ups``/``downs`` counting accepted steps that grow/shrink ``species``.
    """
    check_at_least(1, trials=trials)
    mu = params.mu
    accepted = attempts = ups = downs = 0
    while accepted < trials and attempts < cap:
        _, trace = ga_step(population, params, rng)
        attempts += 1
        if event is not None and trace.event is not event:
            continue
        accepted += 1
        if trace.removed_index == mu:
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
    species: Genotype,
    event: EventClass,
    trials: int,
    rng: RandomStream,
    *,
    max_attempts: int | None = None,
) -> ConditionedEstimate:
    """Estimate one-step increase/decrease probabilities for ``species``
    conditioned on ``event``, by rejection sampling over the production step.

    Repeats single steps from the same start population until ``trials``
    accepted samples or ``max_attempts`` total steps (default 50x target;
    0 takes no step).
    """
    check_at_least(0, max_attempts=max_attempts)
    cap = 50 * trials if max_attempts is None else max_attempts
    accepted, attempts, ups, downs = _count_moves(params, population, species, event, trials, cap, rng)
    y = population.members.count(species)
    if accepted:
        pp = ups / accepted
        pm = downs / accepted
        sp = math.sqrt(pp * (1 - pp) / accepted)
        sm = math.sqrt(pm * (1 - pm) / accepted)
    else:
        pp = pm = sp = sm = 0.0
    return ConditionedEstimate(event, y, pp, pm, sp, sm, accepted, attempts, accepted < 100)


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
    species: Genotype,
    trials: int,
    rng: RandomStream,
) -> DriftEstimate:
    """Mean one-step size change of ``species`` over all event classes."""
    _, _, ups, downs = _count_moves(params, population, species, None, trials, trials, rng)
    mean = (ups - downs) / trials
    second_moment = (ups + downs) / trials
    stderr = math.sqrt(max(second_moment - mean * mean, 0.0) / trials)
    y = population.members.count(species)
    return DriftEstimate(y, mean, stderr, trials, ups, downs)


class MonteCarloFrequency(NamedTuple):
    """Frequency of a binary outcome with its binomial standard error."""

    frequency: float
    stderr: float
    hits: int
    trials: int


# Trials per vectorized batch.  The frequency depends on it, as each batch
# draws all its crossover coins (kept packed) before its mutation coins; both
# come in row slabs, which take the uniforms of one (batch, n) draw.
_SAMPLE_BATCH = 250_000


def sample_optimum_creation_frequency(
    a: Genotype,
    b: Genotype,
    p_m: float,
    trials: int,
    seed: int,
    stream: int = 0,
) -> MonteCarloFrequency:
    """Monte Carlo frequency of reaching the all-ones string with one
    crossover-plus-mutation of parents ``(a, b)``.

    Vectorized across trials (bit matrices over the numpy generator backing
    ``make_rng(seed, stream)``, made once ``trials`` passes its check, drawn
    ``_SAMPLE_BATCH`` trials at a time); per trial the operator semantics
    match ``standard_bit_mutation(uniform_crossover(a, b))`` exactly.
    """
    if a.n != b.n:
        raise ValueError(f"genotype length mismatch: {a.n} != {b.n}")
    check_at_least(1, trials=trials)
    n = a.n
    gen = make_rng(seed, stream).generator
    a_row = np.array([(a.bits >> i) & 1 for i in range(n)], dtype=bool)
    b_row = np.array([(b.bits >> i) & 1 for i in range(n)], dtype=bool)
    slab = max(1, (1 << 20) // n)  # rows per draw: 8 MiB of uniforms at a time
    hits = 0
    left = trials
    while left:
        m = min(_SAMPLE_BATCH, left)
        left -= m
        take_a = np.empty((m, (n + 7) // 8), dtype=np.uint8)  # packed, one bit per coin
        for r in range(0, m, slab):
            take_a[r : r + slab] = np.packbits(gen.random((min(slab, m - r), n)) < 0.5, axis=1)
        for r in range(0, m, slab):
            coins = np.unpackbits(take_a[r : r + slab], axis=1, count=n).view(bool)
            child = np.where(coins, a_row, b_row)
            hits += int((child ^ (gen.random(child.shape) < p_m)).all(axis=1).sum())
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


def _censored_stats(values: list[int | None]) -> tuple[float | None, float | None]:
    completed = [v for v in values if v is not None]
    mean = sum(completed) / len(completed) if completed else None
    median = None
    if len(completed) * 2 > len(values):
        median = float(statistics.median(v if v is not None else math.inf for v in values))
    return mean, median


def _take_over(
    pop: Population, p: GaParams, rng: RandomStream, cap: int
) -> tuple[Population, SpeciesTracker, int | None]:
    """Step until the largest species first holds at most mu/2 members; returns
    ``(population, species tracker, step count)`` then, or with a count of None
    after ``cap`` steps."""
    tracker = SpeciesTracker(pop)
    for t, pop, trace in steps(pop, p, rng, cap):
        tracker.apply(trace)
        if 2 * tracker.largest <= p.mu:
            return pop, tracker, t
    return pop, tracker, None


def run_takeover(
    params: GaParams, replicates: int, max_iterations: int | None = None
) -> TakeoverSummary:
    """From a monomorphic plateau start, time until largest species <= mu/2
    (cap default: 100 times the takeover reference)."""
    check_at_least(1, replicates=replicates)
    check_at_least(0, max_iterations=max_iterations)
    cap = math.ceil(100 * takeover_reference(params)) if max_iterations is None else max_iterations
    reps: list[TakeoverReplicate] = []
    for r in range(replicates):
        rng = make_rng(params.seed, stream=r)
        _, _, hit = _take_over(init_monomorphic_plateau(params, rng), params, rng, cap)
        reps.append(TakeoverReplicate(r, hit, hit is None))
    times = [rr.hitting_time for rr in reps]
    mean, median = _censored_stats(times)
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
    running maximum over all species -- ever regrows to lam*mu.

    Monitoring stops early once the focal outcome is decided or if the
    optimum is created (the plateau regime of interest ends there); such
    replicates are flagged, not dropped.  ``max_iterations`` caps the takeover
    phase as in :func:`run_takeover`.  The analytic tail needs p_c > 0, so a
    zero p_c is rejected, as is lam outside (1/2, 1), before the first draw.
    """
    check_at_least(1, replicates=replicates, t_max=t_max)
    check_at_least(0, max_iterations=max_iterations)
    c_surv = survival_constant(lam, params.chi, params.p_c)
    threshold = math.ceil(lam * params.mu - 1e-9)
    cap = math.ceil(100 * takeover_reference(params)) if max_iterations is None else max_iterations
    reps: list[SurvivalReplicate] = []
    for r in range(replicates):
        rng = make_rng(params.seed, stream=r)
        pop, tracker, hit = _take_over(init_monomorphic_plateau(params, rng), params, rng, cap)
        if hit is None:
            reps.append(SurvivalReplicate(r, None, True, 0, None, None, False))
            continue
        focal = tracker.largest_class()
        focal_hit = max_hit = None
        interrupted = False
        m = 0
        for m, _, trace in steps(pop, params, rng, t_max):
            if trace.optimum_created:
                interrupted = True
                break
            tracker.apply(trace)
            if max_hit is None and tracker.largest >= threshold:
                max_hit = m
            if tracker.count(focal) >= threshold:
                focal_hit = m
                break
        reps.append(SurvivalReplicate(r, hit, False, m, focal_hit, max_hit, interrupted))
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
    replicate: int
    iterations: int
    found_optimum: bool
    distances: tuple[int, ...]
    rows: tuple[tuple[int, tuple[float, ...]], ...]


def run_figure1(
    params: GaParams, replicates: int, stride: int | None = None, max_iterations: int | None = None
) -> list[DistanceSeriesRun]:
    """Relative frequencies of pairwise Hamming distances over time.

    Each replicate starts from a monomorphic plateau population and runs until
    the optimum is created (or the iteration cap).  Rows snapshot the
    population *before* the optimum appears, so every pairwise distance is
    even and at most 2k; row 0 is the initial population.  Rows come every
    ``stride`` steps (default 1 up to mu = 64, else 10); the cap defaults to
    10**7 iterations.
    """
    check_at_least(1, replicates=replicates, stride=stride)
    check_at_least(0, max_iterations=max_iterations)
    distances = tuple(range(0, 2 * params.k + 1, 2))
    if stride is None:
        stride = 1 if params.mu <= 64 else 10
    cap = 10_000_000 if max_iterations is None else max_iterations
    out: list[DistanceSeriesRun] = []
    for r in range(replicates):
        rng = make_rng(params.seed, stream=r)
        pop = init_monomorphic_plateau(params, rng)
        tracker = PairwiseDistanceTracker(pop)
        rows = [(0, tracker.frequencies(distances))]
        found = False
        t = 0
        for t, _, trace in steps(pop, params, rng, cap):
            if trace.optimum_created:
                found = True
                break
            tracker.apply(trace)
            if t % stride == 0:
                rows.append((t, tracker.frequencies(distances)))
        out.append(DistanceSeriesRun(r, t, found, distances, tuple(rows)))
    return out


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
    records = []
    for r in range(replicates):
        rng = make_rng(params.seed, stream=r)
        res = run(init_uniform(params, rng), params, stop, rng)
        records.append(RunRecord(r, res.iterations, res.evaluations, res.stop_reason))
    return tuple(records)


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
class SweepCell:
    mu: int
    y: int
    delta: int
    event: EventClass
    estimate: ConditionedEstimate
    descriptor: str
    checks: tuple[BoundReport, ...]

    @property
    def primary_bound(self) -> float:
        return self.checks[0].analytic_value

    @property
    def satisfied(self) -> bool | None:
        if self.estimate.inconclusive:
            return None
        return all(ch.satisfied for ch in self.checks)


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[SweepCell, ...]

    @property
    def failures(self) -> tuple[SweepCell, ...]:
        return tuple(c for c in self.cells if c.satisfied is False)

    @property
    def inconclusive(self) -> tuple[SweepCell, ...]:
        return tuple(c for c in self.cells if c.satisfied is None)


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
        return BoundReport(name, bound, hat, stderr, est.trials, satisfied)

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


def run_bound_sweep(params: GaParams, mus: tuple[int, ...], trials: int) -> SweepResult:
    """Monte Carlo check of every per-event transition bound over a (mu, y) grid.

    Cell i of :func:`sweep_plan` runs on stream i: it conditions on its kind's
    event from its kind's start population (``_SWEEP_KINDS``), targets
    ``trials`` accepted steps and carries the checks of its kind.
    """
    check_at_least(1, trials=trials)
    cells: list[SweepCell] = []
    for idx, (kind, mu, y) in enumerate(sweep_plan(params, mus)):
        event, delta, pc = _SWEEP_KINDS[kind]
        rng = make_rng(params.seed, stream=idx)
        cell_params = replace(params, mu=mu, p_c=pc)
        if delta:
            pop, focal, _ = two_species_population(cell_params, y, delta, rng)
        else:
            pop = init_monomorphic_plateau(cell_params, rng)
            focal = pop.members[0]
        est = estimate_transition(cell_params, pop, focal, event, trials, rng)
        descriptor = f"kind={kind} mu={mu} y={y} delta={delta} pc={pc} n={params.n} k={params.k} chi={params.chi}"
        cells.append(SweepCell(mu, y, delta, event, est, descriptor, _sweep_checks(kind, mu, y, params, est)))
    return SweepResult(tuple(cells))
