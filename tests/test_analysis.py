"""Closed-form probability bounds, the survival constant, and runtime estimates.

Derived quantities are checked against independently re-derived oracles
(case decompositions, algebraic identities, direct formula transcriptions)
rather than against the implementation's own intermediate values.
"""

from __future__ import annotations

import math

import pytest

from jumpga import (
    Genotype,
    close_crossover_decrease_bound,
    close_crossover_increase_bound,
    exact_optimum_probability,
    mutation_only_increase_oscale,
    mutation_only_transition_bounds,
    no_flip_probability,
    optimum_creation_lower_bound,
    runtime_bound,
    survival_constant,
)


def plateau_pair(n: int, k: int, d: int) -> tuple[Genotype, Genotype]:
    """Canonical plateau parents at Hamming distance 2d (overlapping zero runs)."""
    full = (1 << n) - 1
    a = Genotype(full ^ ((1 << k) - 1), n)
    b = Genotype(full ^ (((1 << k) - 1) << d), n)
    return a, b


# ---------------------------------------------------------------------------
# no-flip probability


def test_no_flip_probability_values():
    assert no_flip_probability(1.0, 100) == pytest.approx(0.99**100, rel=1e-12)
    assert no_flip_probability(0.0, 50) == 1.0
    assert no_flip_probability(50.0, 50) == 0.0
    assert no_flip_probability(2.0, 1000) == pytest.approx((1 - 2 / 1000) ** 1000, rel=1e-9)


def test_no_flip_probability_domain():
    with pytest.raises(ValueError):
        no_flip_probability(1.0, 0)
    with pytest.raises(ValueError):
        no_flip_probability(-0.5, 10)
    with pytest.raises(ValueError):
        no_flip_probability(11.0, 10)


# ---------------------------------------------------------------------------
# optimum-creation probability: closed-form lower bound and exact oracle


def test_optimum_creation_lower_bound_frozen_values():
    assert optimum_creation_lower_bound(10, 2, 0, 0.1) == pytest.approx(
        0.9**8 * 0.1**2, rel=1e-12
    )
    # At parent distance 2k the bound is 4^-k (1-p)^n.
    n, k, pm = 30, 3, 1 / 30
    assert optimum_creation_lower_bound(n, k, k, pm) == pytest.approx(
        4.0**-k * (1 - pm) ** n, rel=1e-12
    )


def test_optimum_creation_lower_bound_formula_transcription():
    # 4^-d (1-p)^(n-k+d) p^(k-d) over a parameter grid.
    for n in (10, 25):
        for k in (2, 3):
            for d in range(k + 1):
                for pm in (1 / n, 2 / n, 0.2):
                    val = optimum_creation_lower_bound(n, k, d, pm)
                    ref = 4.0**-d * (1 - pm) ** (n - k + d) * pm ** (k - d)
                    assert val == pytest.approx(ref, rel=1e-10)


def test_optimum_creation_lower_bound_domain():
    for bad in ((10, 2, -1, 0.1), (10, 2, 3, 0.1), (10, 0, 0, 0.1), (10, 6, 0, 0.1)):
        with pytest.raises(ValueError):
            optimum_creation_lower_bound(*bad)
    for bad_pm in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            optimum_creation_lower_bound(10, 2, 0, bad_pm)


def test_exact_optimum_probability_hand_case():
    # n=3, parents 011 and 101, p=0.2: one shared one-bit survives (0.8), two
    # differing bits each picked right (1/4): 0.8 * 0.25 = 0.2.
    a, b = Genotype(0b011, 3), Genotype(0b101, 3)
    assert exact_optimum_probability(a, b, 0.2) == pytest.approx(0.2, rel=1e-12)


def test_exact_optimum_probability_identical_parents():
    n, k, pm = 12, 3, 0.1
    a, _ = plateau_pair(n, k, 0)
    # k zero-bits must flip, n-k one-bits must survive.
    assert exact_optimum_probability(a, a, pm) == pytest.approx(
        (1 - pm) ** (n - k) * pm**k, rel=1e-12
    )
    assert exact_optimum_probability(Genotype((1 << n) - 1, n), Genotype((1 << n) - 1, n), 0.0) == 1.0


def test_exact_equals_bound_for_identical_parents_bitwise():
    # At parent distance 0 the lower bound is exact; both code paths must
    # produce the identical float.
    for n, k in ((10, 2), (20, 3), (14, 4)):
        for pm in (1 / n, 2 / n):
            a, _ = plateau_pair(n, k, 0)
            assert exact_optimum_probability(a, a, pm) == optimum_creation_lower_bound(n, k, 0, pm)


def test_exact_optimum_probability_is_symmetric():
    for n, k, d in ((10, 2, 1), (20, 3, 2), (16, 4, 3)):
        a, b = plateau_pair(n, k, d)
        pm = 1 / n
        assert exact_optimum_probability(a, b, pm) == exact_optimum_probability(b, a, pm)


def test_exact_dominates_bound_on_grid():
    for n in (10, 20):
        for k in (2, 3):
            for d in range(k + 1):
                for pm in (1 / n, 2 / n):
                    a, b = plateau_pair(n, k, d)
                    assert exact_optimum_probability(a, b, pm) >= optimum_creation_lower_bound(
                        n, k, d, pm
                    )


def test_exact_optimum_probability_domain():
    with pytest.raises(ValueError):
        exact_optimum_probability(Genotype(0, 4), Genotype(0, 5), 0.1)
    with pytest.raises(ValueError):
        exact_optimum_probability(Genotype(0, 4), Genotype(0, 4), 1.5)


# ---------------------------------------------------------------------------
# close-crossover transition bounds


def test_close_crossover_increase_bound_frozen_value():
    # y = mu/2 = 2, mu = 4, chi = 0 limit: 2*2*6 / (2*5*16) = 0.15.
    assert close_crossover_increase_bound(2, 4, 0.0, 100) == pytest.approx(0.15, rel=1e-12)
    assert close_crossover_increase_bound(4, 4, 1.0, 100) == 0.0  # no room to grow


def test_close_crossover_decrease_bound_frozen_values():
    # y = 2, mu = 4, chi = 0 limit: 2*2*4 / (2*5*16) = 0.1.
    assert close_crossover_decrease_bound(2, 4, 0.0, 100) == pytest.approx(0.1, rel=1e-12)
    expected = 0.175 * 0.99**100  # chi = 1, n = 100 adds the no-flip factor
    assert close_crossover_decrease_bound(2, 4, 1.0, 100) == pytest.approx(expected, rel=1e-9)


def test_close_crossover_decrease_bound_rejects_full_takeover():
    with pytest.raises(ValueError):
        close_crossover_decrease_bound(4, 4, 1.0, 100)


def test_decrease_bound_matches_two_case_derivation():
    # Independent oracle: conditioning on whether the second parent belongs to
    # the focal species (weight y, factor 1+chi) or not (weight mu-y, factor
    # 1+chi/2) and summing the two cases.
    n = 200
    for mu in (2, 4, 7, 16, 33):
        for y in range(1, mu):
            for chi in (0.0, 0.5, 1.0, 2.0):
                oracle = (
                    y
                    * (mu - y)
                    * (y * (1 + chi) + (mu - y) * (1 + chi / 2))
                    / (2 * (mu + 1) * mu * mu)
                    * no_flip_probability(chi, n)
                )
                assert close_crossover_decrease_bound(y, mu, chi, n) == pytest.approx(
                    oracle, rel=1e-12
                )


def test_increase_bound_shrinks_on_upper_witness_range():
    # (mu-y) y (mu+y) is decreasing in y once y exceeds mu/sqrt(3); the
    # interesting regime y >= ceil(mu/sqrt(3)) must be monotone decreasing.
    mu, chi, n = 100, 1.0, 1000
    start = math.ceil(mu / math.sqrt(3)) + 1
    vals = [close_crossover_increase_bound(y, mu, chi, n) for y in range(start, mu + 1)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # ... and is NOT monotone over the wider range [mu/2, mu]: it still rises
    # between mu/2 and mu/sqrt(3).
    assert close_crossover_increase_bound(mu // 2 + 1, mu, chi, n) > close_crossover_increase_bound(
        mu // 2, mu, chi, n
    )


def test_transition_bound_domain_checks():
    for fn in (close_crossover_increase_bound, close_crossover_decrease_bound):
        with pytest.raises(ValueError):
            fn(0, 4, 1.0, 100)
        with pytest.raises(ValueError):
            fn(5, 4, 1.0, 100)
        with pytest.raises(ValueError):
            fn(2, 1, 1.0, 100)
        with pytest.raises(ValueError):
            fn(2, 4, -1.0, 100)


# ---------------------------------------------------------------------------
# mutation-only transition bounds


def test_mutation_only_bounds_frozen_value():
    inc, dec = mutation_only_transition_bounds(1, 2, 1.0, 100)
    expected = (1 / 6) * 0.99**100  # = 0.061005...
    assert inc == pytest.approx(expected, rel=1e-9)
    assert dec == inc
    assert expected == pytest.approx(0.061005, abs=5e-7)


def test_mutation_only_bounds_vanish_at_full_takeover():
    assert mutation_only_transition_bounds(4, 4, 1.0, 100) == (0.0, 0.0)


def test_mutation_only_bound_formula_transcription():
    for mu in (2, 5, 16):
        for y in range(1, mu + 1):
            for chi in (0.5, 1.0):
                n = 150
                inc, dec = mutation_only_transition_bounds(y, mu, chi, n)
                ref = y * (mu - y) / (mu * (mu + 1)) * (1 - chi / n) ** n
                assert inc == pytest.approx(ref, rel=1e-9)
                assert dec == pytest.approx(ref, rel=1e-9)


def test_neglected_term_scales():
    # The neglected-term scale of both increase terms is (mu-y)^2 / (n mu^2).
    for mu, y, n in ((4, 2, 100), (16, 12, 50), (20, 15, 200)):
        ref = (mu - y) ** 2 / (n * mu * mu)
        assert mutation_only_increase_oscale(y, mu, n) == pytest.approx(ref, rel=1e-12)


# ---------------------------------------------------------------------------
# survival constant and drift-tail parameters


def test_survival_constant_frozen_value():
    c = survival_constant(0.75, 1.0, 1.0)
    assert c == pytest.approx(2.75 / (512 * math.e), rel=1e-12)
    assert c == pytest.approx(1.9759e-3, abs=5e-7)


def test_survival_constant_general_formula():
    for lam in (0.6, 0.75, 0.9):
        for chi in (0.5, 1.0, 2.0):
            for p_c in (0.25, 1.0):
                ref = (2 * lam - 1) * (1 + (1 + lam) * chi) / (256 * math.e) * p_c
                assert survival_constant(lam, chi, p_c) == pytest.approx(ref, rel=1e-12)


def test_survival_constant_monotonicity():
    base = survival_constant(0.75, 1.0, 0.5)
    assert survival_constant(0.8, 1.0, 0.5) > base
    assert survival_constant(0.75, 1.5, 0.5) > base
    assert survival_constant(0.75, 1.0, 0.75) > base


def test_survival_constant_domain():
    for bad in ((0.5, 1.0, 0.5), (1.0, 1.0, 0.5), (0.75, 0.0, 0.5), (0.75, 1.0, 0.0), (0.75, 1.0, 1.1)):
        with pytest.raises(ValueError):
            survival_constant(*bad)


def test_drift_tail_equals_survival_tail():
    # The drift theorem's exponent, from the recentred regrowth process
    # (start a = 0, target b, step bound c, one-sided drift epsilon), must
    # equal C*mu with C the survival constant: b|eps| / (2 c^2) = C mu.
    for lam in (0.6, 0.75, 0.9):
        for mu in (16, 64, 256):
            for chi in (0.5, 1.0, 2.0):
                for p_c in (0.5, 1.0):
                    b = (lam - 0.5) * mu
                    epsilon = -(1 + (1 + lam) * chi) * p_c / (64 * math.e)
                    c = 1.0
                    exponent = b * abs(epsilon) / (2 * c * c)
                    expected = survival_constant(lam, chi, p_c) * mu
                    assert exponent == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# runtime bound


def test_runtime_bound_formula_on_both_sides_of_the_population_switch():
    n, k, chi, p_c = 1000, 3, 1.0, 1.0
    c = survival_constant(0.75, chi, p_c)

    def reference(mu: int) -> float:
        takeover = n * math.sqrt(k) * (mu * math.log(mu) + math.log(n))
        gain = min(math.exp(c * mu / 2), float(n) ** (k - 1))
        middle = (mu * n + mu * mu * math.log(mu)) / (float(n) ** (1 - k) * gain)
        return takeover + middle + float(n) ** (k - 1)

    for mu in (100, 1000, 20_000, 100_000):
        assert runtime_bound(n, k, mu, chi, p_c) == pytest.approx(reference(mu), rel=1e-12)

    # The exponential diversity gain saturates at n^(k-1) near mu ~ 1.4e4.
    mu_star = 2 * (k - 1) * math.log(n) / c
    assert mu_star == pytest.approx(1.4e4, rel=0.01)
    assert math.exp(c * 13_000 / 2) < n ** (k - 1) < math.exp(c * 15_000 / 2)


def test_runtime_bound_is_not_monotone_in_population_size():
    # Small populations lack diversity (middle term huge), mid-size
    # populations get the full exponential gain, very large populations pay
    # takeover costs: the curve rises, falls, then rises again.
    n, k, chi, p_c = 1000, 3, 1.0, 1.0
    at = {mu: runtime_bound(n, k, mu, chi, p_c) for mu in (2, 1000, 14_000, 100_000)}
    assert at[2] < at[1000]
    assert at[1000] > at[14_000]
    assert at[14_000] < at[100_000]


def test_runtime_bound_is_near_polynomial_scale_for_large_tuned_populations():
    # With mu = ceil(2100 ln n) the bound settles within [0.5, 50] * n^(k-1).
    for n in (100_000, 1_000_000):
        mu = math.ceil(2100 * math.log(n))
        ratio = runtime_bound(n, 3, mu, 1.0, 1.0) / n**2
        assert 0.5 <= ratio <= 50


def test_runtime_bound_small_populations_overshoot_polynomial_scale():
    # A mu = ceil(40 ln n) population is far too small for the diversity gain
    # to matter at n = 1000: the bound sits orders of magnitude above n^(k-1).
    n = 1000
    mu = math.ceil(40 * math.log(n))
    assert runtime_bound(n, 3, mu, 1.0, 0.5) / n**2 > 50


def test_runtime_bound_is_infinite_once_a_power_of_n_leaves_the_double_range():
    # n^(k-1) = 1000^109 exceeds the largest double, at valid GaParams settings.
    for mu in (2, 64, 20_000):
        assert runtime_bound(1000, 110, mu, 1.0, 0.5) == math.inf
    assert math.isfinite(runtime_bound(1000, 100, 64, 1.0, 0.5))


def test_runtime_bound_domain():
    with pytest.raises(ValueError):
        runtime_bound(100, 2, 10, 1.0, 0.5)
    with pytest.raises(ValueError):
        runtime_bound(100, 3, 1, 1.0, 0.5)

