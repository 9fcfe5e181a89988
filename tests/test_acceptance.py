"""End-to-end acceptance checks for the plateau-dynamics laboratory.

Twelve labeled checks, each registering one verdict line through
``conftest.record_acceptance`` (replayed together at the end of the run).
Every check drives the public package API or the CLI exactly as a user would,
except check 06, whose Monte Carlo drift is the test oracle in
``tests/reference.py``.

Checks 07 and 09 assert the measurable form of the persistence claim at the
sizes they simulate.  The paper's guarantee is that regrowth to lam*mu within
t steps has probability at most t^2 * exp(-C*mu), with C = survival_constant
(about 1e-3 here); that bound is above 1 for every run length these checks
use, so it backs neither "no regrowth at mu=64" nor "d0 never again reaches
0.2 at mu=20".  Check 07 therefore asserts that the regrowth hazard per
monitored iteration falls significantly as mu doubles, and check 09 that the
collapsed state occupies at least 90% of the run after the early drop.  Both
still print the analytic tail, and both fail on dynamics without the claimed
effect (equal or rising hazards; a mutation-only run that never collapses).
The ``test_helper_*`` tests show each restated clause rejecting such inputs
without running a simulation.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import pytest
from conftest import record_acceptance
from reference import estimate_unconditioned_drift, hamming_distance

from jumpga import (
    EventClass,
    GaParams,
    close_crossover_decrease_bound,
    exact_optimum_probability,
    make_rng,
    mutation_only_increase_oscale,
    mutation_only_transition_bounds,
    optimum_creation_lower_bound,
    run_bound_sweep,
    run_comparison,
    run_figure1,
    run_survival,
    run_takeover,
    sample_optimum_creation_frequency,
    survival_constant,
    two_species_population,
)
from jumpga.cli import main
from jumpga.experiments import SurvivalReplicate


# ---------------------------------------------------------------------------
# shared expensive fixtures


@pytest.fixture(scope="module")
def bound_sweep():
    """One 27-cell transition sweep shared by checks 03, 04, and 05."""
    params = GaParams(n=100, k=3, mu=4, p_c=0.5, chi=1.0, seed=1)
    return run_bound_sweep(params, mus=(4, 8, 16), trials=100_000)


@pytest.fixture(scope="module")
def distance_series_runs():
    """Ten seeded distance-frequency trajectories shared by check 09.

    Sampling every 20 iterations keeps the stored series small.  The
    occupancy clause counts samples, so it reads the share of the run spent
    collapsed at this cadence; runs last 5e4 to 3e5 iterations, which gives
    thousands of samples per run.
    """
    params = GaParams(n=100, k=5, mu=20, p_c=1.0, chi=1.0, seed=1)
    return run_figure1(params, replicates=10, stride=20)


def _fmt(x: float) -> str:
    return f"{x:.4g}"


# ---------------------------------------------------------------------------
# 01: exact single-event oracle vs plain Monte Carlo


def test_01_exact_event_probability_matches_simulation():
    n, k, trials = 20, 3, 10_000_000
    p_m = 1.0 / n
    full = (1 << n) - 1
    lines: list[str] = []
    ok = True
    for d in range(4):
        a = full ^ ((1 << k) - 1)
        b = full ^ (((1 << k) - 1) << d)
        assert hamming_distance(a, b) == 2 * d
        exact = exact_optimum_probability(a, b, n, p_m)
        mc = sample_optimum_creation_frequency(a, b, n, p_m, trials, 1, d)
        gap = abs(mc.frequency - exact)
        tol = 3 * mc.stderr
        ok = ok and gap <= tol
        lines.append(f"d={d}: exact={_fmt(exact)} mc={_fmt(mc.frequency)} "
                     f"gap={_fmt(gap)} tol={_fmt(tol)}")
    record_acceptance(1, "exact event oracle vs 1e7-trial simulation", ok, "; ".join(lines))
    assert ok, lines


# ---------------------------------------------------------------------------
# 02: closed-form lower bound never exceeds the exact probability


def test_02_lower_bound_dominated_by_exact_probability_exhaustively():
    checked = 0
    violations = 0
    skipped = 0
    worst = 0.0
    for n in range(2, 15):
        full = (1 << n) - 1
        for k in range(1, min(4, n // 2) + 1):
            plateau = [
                full ^ sum(1 << i for i in zeros)
                for zeros in itertools.combinations(range(n), k)
            ]
            for p_m in (1.0 / n, 2.0 / n):
                if not 0.0 < p_m < 1.0:
                    skipped += 1  # per-bit rate 1.0 is outside the bound's domain
                    continue
                bounds = [optimum_creation_lower_bound(n, k, d, p_m) for d in range(k + 1)]
                for a, b in itertools.combinations_with_replacement(plateau, 2):
                    d = hamming_distance(a, b) // 2
                    exact = exact_optimum_probability(a, b, n, p_m)
                    checked += 1
                    ratio = bounds[d] / exact
                    worst = max(worst, ratio)
                    if bounds[d] > exact:
                        violations += 1
    ok = violations == 0 and checked > 1_000_000
    record_acceptance(
        2,
        "closed-form bound <= exact probability on every plateau pair",
        ok,
        f"{checked} pairs over n<=14, k<=4, both mutation rates: {violations} violations, "
        f"max bound/exact ratio {worst:.6f} ({skipped} degenerate rate grid points skipped)",
    )
    assert ok


# ---------------------------------------------------------------------------
# 03-05: conditioned single-step estimates vs per-event bounds (shared sweep)


def test_03_close_crossover_loss_rate_dominates_its_bound(bound_sweep):
    cells = [c for c in bound_sweep
             if c.estimate.event is EventClass.CROSSOVER_CLOSE and c.delta == 1]
    assert len(cells) == 8
    ok = True
    margins: list[str] = []
    for c in cells:
        est = c.estimate
        bound = close_crossover_decrease_bound(c.estimate.y, c.mu, 1.0, 100)
        floor = bound - 3 * est.stderr_minus
        good = est.trials >= 100_000 and not est.inconclusive and est.p_minus_hat >= floor
        ok = ok and good
        margins.append(f"mu={c.mu},y={c.estimate.y}: loss={est.p_minus_hat:.5f} floor={floor:.5f}")
    record_acceptance(
        3,
        "close-crossover loss rate >= bound - 3*stderr on the full grid",
        ok,
        "; ".join(margins),
    )
    assert ok, margins


def test_04_distant_crossover_loss_at_least_twice_gain(bound_sweep):
    cells = [c for c in bound_sweep if c.estimate.event is EventClass.CROSSOVER_DISTANT]
    assert len(cells) == 8 and all(2 * c.estimate.y >= c.mu for c in cells)
    ok = True
    margins: list[str] = []
    for c in cells:
        est = c.estimate
        need = 2 * est.p_plus_hat - 3 * (est.stderr_plus + est.stderr_minus)
        good = est.trials >= 100_000 and not est.inconclusive and est.p_minus_hat >= need
        ok = ok and good
        margins.append(f"mu={c.mu},y={c.estimate.y}: loss={est.p_minus_hat:.5f} "
                       f"2*gain={2 * est.p_plus_hat:.5f}")
    record_acceptance(
        4,
        "distant-crossover loss rate >= twice the gain rate (majority cells)",
        ok,
        "; ".join(margins),
    )
    assert ok, margins


def test_05_mutation_only_rates_match_shared_leading_term(bound_sweep):
    cells = [c for c in bound_sweep if c.estimate.event is EventClass.MUTATION_ONLY]
    assert len(cells) == 8
    ok = True
    margins: list[str] = []
    for c in cells:
        est = c.estimate
        lead, lower = mutation_only_transition_bounds(c.estimate.y, c.mu, 1.0, 100)
        band = 3 * est.stderr_plus + 10.0 * mutation_only_increase_oscale(c.estimate.y, c.mu, 100)
        good = (
            est.trials >= 100_000
            and not est.inconclusive
            and est.p_minus_hat >= lower - 3 * est.stderr_minus
            and abs(est.p_plus_hat - lead) <= band
        )
        ok = ok and good
        margins.append(f"mu={c.mu},y={c.estimate.y}: gain={est.p_plus_hat:.5f} "
                       f"loss={est.p_minus_hat:.5f} lead={lead:.5f}")
    record_acceptance(
        5,
        "mutation-only loss floor and gain band around the shared leading term",
        ok,
        "; ".join(margins),
    )
    assert ok, margins


# ---------------------------------------------------------------------------
# 06: unconditioned one-step drift of the majority species is negative


def test_06_majority_species_drift_is_negative():
    params = GaParams(n=200, k=3, mu=20, p_c=0.5, chi=1.0, seed=11)
    ok = True
    lines: list[str] = []
    for y in (10, 12, 14, 15):
        pop, focal, _ = two_species_population(params, y, 1, make_rng(11, 100 + y))
        est = estimate_unconditioned_drift(params, pop, focal, 1_000_000, make_rng(11, y))
        ceiling = est.mean + 3 * est.stderr
        good = ceiling < 0.0
        ok = ok and good
        lines.append(f"y={y}: drift={est.mean:+.5f} +3se={ceiling:+.5f}")
    record_acceptance(
        6,
        "majority-species drift negative at 3 sigma (1e6 one-step trials per y)",
        ok,
        "; ".join(lines),
    )
    assert ok, lines


# ---------------------------------------------------------------------------
# 07 and 09: the restated persistence clauses, and synthetic inputs that
#     each clause must reject without running a simulation


def _regrowth_exposure(replicates) -> tuple[int, int]:
    """(running-max regrowths, exposure) summed over the replicates.  A
    replicate is exposed for its monitored iterations up to its first
    running-max regrowth, or for its whole window if it never regrows, so a
    window that the optimum cut short counts only what it watched and a
    replicate whose takeover never completed (monitored 0) adds nothing."""
    events = sum(r.max_hit_time is not None for r in replicates)
    exposure = sum(r.monitored_iterations if r.max_hit_time is None else r.max_hit_time
                   for r in replicates)
    return events, exposure


def _hazard_falls(smaller_mu: tuple[int, int], larger_mu: tuple[int, int]) -> tuple[bool, float]:
    """Whether the hazard (events / exposure) is strictly lower at the larger
    mu and significantly so at the one-sided 1% level, with the p-value.

    Exact conditional binomial test: given the pair's total event count, under
    equal rates the larger mu's count is binomial with success probability its
    share of the pair's exposure; p is the chance of at most the observed count.
    """
    (e_small, x_small), (e_large, x_large) = smaller_mu, larger_mu
    total = e_small + e_large
    share = x_large / (x_small + x_large)
    p = sum(math.comb(total, j) * share**j * (1 - share) ** (total - j)
            for j in range(e_large + 1))
    return e_large * x_small < e_small * x_large and p < 0.01, p


def _collapse_occupancy(rows, horizon: int) -> tuple[bool, float]:
    """Whether d0 < 0.2 on at least 90% of the samples from the first sample at
    t <= horizon/10 with d0 < 0.05 to the end of the run, with that share.
    A run whose d0 never drops below 0.05 that early has no such samples; it
    fails the clause with share 0."""
    d0 = [fr[0] for _, fr in rows]
    first = next((i for i, (t, _) in enumerate(rows) if t <= horizon / 10 and d0[i] < 0.05),
                 None)
    if first is None:
        return False, 0.0
    occupancy = sum(v < 0.2 for v in d0[first:]) / (len(d0) - first)
    return occupancy >= 0.9, occupancy


def test_helper_07_exposure_stops_at_first_regrowth_and_skips_censored_takeovers():
    reps = [
        SurvivalReplicate(0, 10, False, 500, None, 40, False),
        SurvivalReplicate(1, 12, False, 300, None, None, True),
        SurvivalReplicate(2, None, True, 0, None, None, False),
    ]
    assert _regrowth_exposure(reps) == (1, 340)


def test_helper_07_rejects_equal_rising_and_insignificant_hazards():
    assert not _hazard_falls((20, 1000), (20, 1000))[0]
    assert not _hazard_falls((10, 1000), (30, 1000))[0]
    falls, p = _hazard_falls((10, 1000), (6, 1000))
    # 6 of 16 events where equal rates give 8 on average: lower, not significant
    assert not falls and p == pytest.approx(sum(math.comb(16, j) for j in range(7)) / 2**16)


def test_helper_07_accepts_a_significant_fall():
    falls, p = _hazard_falls((30, 1000), (2, 1000))
    assert falls and p == pytest.approx((1 + 32 + 496) / 2**32)
    # equal counts over 10x the exposure: the hazard is ten times lower
    assert _hazard_falls((20, 1000), (20, 10_000))[0]


def _d0_rows(series):
    return [(t, (d0, 0.0)) for t, d0 in enumerate(series)]


def test_helper_09_rejects_no_early_drop_and_a_drop_that_does_not_last():
    never = _d0_rows([1.0] + [0.5] * 100)
    assert _collapse_occupancy(never, 100) == (False, 0.0)
    late = _d0_rows([1.0] * 20 + [0.01] * 81)
    assert not _collapse_occupancy(late, 100)[0]
    rebound = _d0_rows([1.0, 0.01] + [0.5] * 99)
    holds, occupancy = _collapse_occupancy(rebound, 100)
    assert not holds and occupancy == pytest.approx(1 / 100)


def test_helper_09_accepts_a_collapse_with_brief_spikes():
    series = [1.0, 0.01] + [1.0 if t % 20 == 0 else 0.03 for t in range(2, 101)]
    holds, occupancy = _collapse_occupancy(_d0_rows(series), 100)
    assert holds and occupancy == pytest.approx(95 / 100)


# ---------------------------------------------------------------------------
# 07: after takeover, the hazard of a species regrowing to lam*mu falls
#     significantly each time mu doubles


def test_07_species_regrowth_vanishes_at_large_population():
    hazards: list[tuple[int, int]] = []
    lines: list[str] = []
    for mu in (16, 32, 64):
        params = GaParams(n=200, k=3, mu=mu, p_c=0.5, chi=1.0, seed=1)
        s = run_survival(params, replicates=30, lam=0.75, t_max=100_000)
        events, exposure = _regrowth_exposure(s.replicates)
        hazards.append((events, exposure))
        cut = sum(r.optimum_interrupted for r in s.replicates)
        lines.append(
            f"mu={mu}: running-max regrowth {events}/{s.monitored_replicates} over "
            f"{exposure} iterations, hazard {events / exposure:.3g}, "
            f"{cut}/{s.monitored_replicates} windows cut by the optimum, "
            f"tail={s.analytic_tail:.3g}{' (vacuous)' if s.tail_is_vacuous else ''}"
        )
    verdicts = [_hazard_falls(a, b) for a, b in zip(hazards, hazards[1:])]
    ok = all(falls for falls, _ in verdicts)
    record_acceptance(
        7,
        "running-max regrowth hazard falls significantly at each doubling of mu",
        ok,
        "; ".join(lines) + f" | one-sided p 16->32={verdicts[0][1]:.2g}, "
        f"32->64={verdicts[1][1]:.2g}, need a lower hazard with p < 0.01 at each step",
    )
    assert ok, lines


# ---------------------------------------------------------------------------
# 08: takeover completes within the reference budget on every replicate


def test_08_takeover_always_completes_within_budget():
    params = GaParams(n=100, k=3, mu=20, p_c=0.5, chi=1.0, seed=1)
    s = run_takeover(params, replicates=50)
    times = [r.hitting_time for r in s.replicates]
    ok = (
        s.censored == 0
        and all(t is not None and t <= s.cap for t in times)
        and len(times) == 50
    )
    record_acceptance(
        8,
        "takeover finishes within 100x reference budget on all 50 replicates",
        ok,
        f"max={max(t for t in times if t is not None)} "
        f"median={s.median_hitting_time} cap={s.cap} censored={s.censored}",
    )
    assert ok


# ---------------------------------------------------------------------------
# 09: distance-frequency trajectories: early monomorphic collapse that then
#     occupies most of the run, plus ordered first-passage times across
#     distances


def _ordered_first_passages(run) -> bool:
    idx = {d: run.distances.index(d) for d in (2, 4, 6, 8)}
    previous = -1.0
    for d in (2, 4, 6, 8):
        fp = next((t for t, fr in run.rows if fr[idx[d]] >= 0.1), None)
        if fp is None or fp <= previous:
            return False
        previous = fp
    return True


def test_09_distance_spread_runs_show_collapse_and_ordered_passages(distance_series_runs):
    runs = distance_series_runs
    assert len(runs) == 10
    pass_a = pass_b = pass_both = 0
    occupancies: list[float] = []
    for run in runs:
        a, occupancy = _collapse_occupancy(run.rows, run.iterations)
        b = _ordered_first_passages(run)
        pass_a += a
        pass_b += b
        pass_both += a and b
        occupancies.append(occupancy)
    ok = pass_both >= 8
    record_acceptance(
        9,
        "monomorphic collapse holds on >= 90% of the run after an early drop and "
        "distance passages are ordered (8/10)",
        ok,
        f"post-drop share of samples with d0 < 0.2 per run: "
        f"{', '.join(f'{o:.3f}' for o in occupancies)} (min {min(occupancies):.3f}); "
        f"occupancy clause holds in {pass_a}/10; ordered first-passages hold in "
        f"{pass_b}/10; both in {pass_both}/10, need >= 8",
    )
    assert ok


# ---------------------------------------------------------------------------
# 10: crossover accelerates optimization by at least 5x at n=40, k=3


def test_10_crossover_beats_mutation_only_by_factor_five():
    params = GaParams(n=40, k=3, mu=12, p_c=0.5, chi=1.0, seed=1)
    s = run_comparison(params, replicates=20)
    arms = {arm.label: arm for arm in s.arms}
    cx, mut = arms["crossover"], arms["mutation_only"]
    ok = (
        s.evaluation_ratio is not None
        and s.evaluation_ratio >= 5.0
        and cx.median_evaluations is not None
        and cx.median_evaluations <= 16_000
    )
    record_acceptance(
        10,
        "crossover arm at least 5x faster and under 16000 median evaluations",
        ok,
        f"medians: crossover={cx.median_evaluations} mutation_only={mut.median_evaluations} "
        f"ratio={s.evaluation_ratio:.2f} censored=({cx.censored},{mut.censored})",
    )
    assert ok


# ---------------------------------------------------------------------------
# 11: every artifact-writing subcommand is byte-identical on rerun


_CLI_CASES = [
    ("run", ["--n", "30", "--k", "3", "--mu", "8", "--seed", "3", "--replicates", "2"]),
    ("takeover", ["--n", "30", "--k", "3", "--mu", "8", "--seed", "3", "--replicates", "3"]),
    ("survival", ["--n", "30", "--k", "3", "--mu", "8", "--seed", "3",
                  "--replicates", "2", "--t-max", "300"]),
    ("figure1", ["--n", "30", "--k", "3", "--mu", "8", "--seed", "5", "--replicates", "2"]),
    ("compare", ["--n", "14", "--k", "2", "--mu", "6", "--seed", "7", "--replicates", "2"]),
    ("bounds", ["--n", "50", "--mus", "4,8"]),
    ("sweep", ["--n", "60", "--trials", "2000", "--mus", "4", "--seed", "4"]),
    ("oracle", ["--n", "12", "--k", "2", "--d", "1", "--mc-trials", "20000", "--seed", "9"]),
]


def _artifact_bytes(out_dir) -> dict[str, bytes]:
    return {
        p.name: p.read_bytes()
        for p in sorted(out_dir.iterdir())
        if p.name != "config.resolved"  # embeds the output path itself
    }


def test_11_all_subcommands_rerun_byte_identical(tmp_path, capsys):
    ok = True
    total_files = 0
    notes: list[str] = []
    for sub, args in _CLI_CASES:
        first, second = tmp_path / f"{sub}_a", tmp_path / f"{sub}_b"
        rc1 = main([sub, "--out", str(first)] + args)
        rc2 = main([sub, "--out", str(second)] + args)
        capsys.readouterr()
        bytes1, bytes2 = _artifact_bytes(first), _artifact_bytes(second)
        same = rc1 == rc2 == 0 and bytes1 and bytes1 == bytes2
        ok = ok and same
        total_files += len(bytes1)
        if not same:
            notes.append(f"{sub}: rc=({rc1},{rc2}) mismatch")
    detail = f"{total_files} artifact files across {len(_CLI_CASES)} subcommands"
    record_acceptance(
        11,
        "every subcommand rerun produces byte-identical artifacts",
        ok,
        detail if ok else detail + "; " + "; ".join(notes),
    )
    assert ok, notes


# sha256 of every artifact but config.resolved, per _CLI_CASES entry: check 11
# proves that a rerun matches itself, these pins that it matches earlier
# versions of the package.
_CLI_PINS = {
    "run": {
        "runs.csv": "3dffdb84f6c2d0a265f9907b60020628ec83151d866716543a8736c514d8c23f",
    },
    "takeover": {
        "takeover.csv": "66e763abdda75a2f980b1c79d5c2843edb4c80246ca50e5410facfaa2850b809",
        "takeover_summary.json": "b7857f8c98ee025ad197bf4969cf2913567f75726a15f31c90e24c5a159b6e48",
    },
    "survival": {
        "survival.csv": "efa83215823de237fdae1d3602a62fe51fec23ec975ca93486483a83cb28a999",
        "survival_summary.json": "bfe04c96650309a2b6aebca3c842b5a49ee6819e4336f964dfc465ce00cd7af6",
    },
    "figure1": {
        "figure1_seed0.csv": "1b435ab0bbe801aad1680928f3d756c14d82f0c8fbb241a69826254b65ec2c7e",
        "figure1_seed0.svg": "c004f0be8d5becc89e754d91f500b6da6466577cb8b191581a5310d134abfa1e",
        "figure1_seed1.csv": "7faa47804569641e8c5806fda30da6d7d14ad27996051aafbaef49cb3ebc496f",
        "figure1_seed1.svg": "9ff92deb1543a14ca43d85ec18fc98de1d047800f3ead496fcf40be7a8364b96",
        "figure1_summary.json": "44b8412fbfa32135f57978322b45b6427ae90f465e7080f5ff51444eed8d2425",
    },
    "compare": {
        "compare_crossover.csv": "92bd6b08439a1ad729f775bf4332973878f8f7b5bf833d385ba20086f6b9325e",
        "compare_mutation_only.csv": "12643526def509965f3654d5ae574b81e85d31e600b96369081ac096c3e520e3",
        "compare_summary.json": "66b6c106bba5a4e115f12b6d624bb61f160f296371ce9e486dffd73ba52e7024",
    },
    "bounds": {
        "bounds.csv": "a6bbdfd096c112551a4231b9c505db8dc0f105c7e65b1a2d91007c47f9697342",
    },
    "sweep": {
        "sweep_summary.json": "c52308f13de03afdc060362793db7da044742b53f633412d293a532063fef7c1",
        "transitions.csv": "018cc53599a0d86c94522d6d6e20e1b54be8ddc21848fcc97cd0ec49ed282d69",
    },
    "oracle": {
        "oracle.json": "4b1bf7183f9394ffeafd5aa592c1b60a146a14e72b275f9cbaf3e07f9ff24a27",
    },
}


@pytest.mark.parametrize("sub,args", _CLI_CASES, ids=[sub for sub, _ in _CLI_CASES])
def test_11_artifacts_match_pinned_digests(tmp_path, capsys, sub, args):
    out = tmp_path / sub
    assert main([sub, "--out", str(out)] + args) == 0
    capsys.readouterr()
    digests = {name: hashlib.sha256(data).hexdigest() for name, data in _artifact_bytes(out).items()}
    assert digests == _CLI_PINS[sub]


# ---------------------------------------------------------------------------
# 12: survival constant equals its simplified closed form exactly


def test_12_survival_constant_matches_simplified_form_exactly():
    mismatches = []
    for chi in (0.5, 0.75, 1.0, 1.5, 2.0):
        for p_c in (0.25, 0.5, 0.75, 1.0):
            got = survival_constant(0.75, chi, p_c)
            want = (1 + 1.75 * chi) / (512 * math.e) * p_c
            if got != want:
                mismatches.append((chi, p_c, got, want))
    ok = not mismatches
    record_acceptance(
        12,
        "survival constant equals (1 + 1.75*chi)/(512*e)*p_c bit-for-bit on a 20-point grid",
        ok,
        "all 20 grid points identical" if ok else f"mismatches: {mismatches}",
    )
    assert ok, mismatches
