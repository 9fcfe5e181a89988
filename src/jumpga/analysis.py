"""Closed-form evaluators: transition-probability bounds, the regrowth-tail constant, runtime bound.

These functions evaluate the analytic side of every claim the Monte Carlo
experiments test.  Notation used throughout: a focal plateau species of size
``y`` inside a population of ``mu`` members on bit strings of length ``n``,
mutation strength ``chi`` (per-bit rate ``chi/n``), crossover probability
``p_c``.  "Increase"/"decrease" refer to the focal species size changing by
plus/minus one in a single iteration, conditioned on the stated event class.

Probability products are evaluated in log space throughout, which keeps tiny
plateau-to-optimum probabilities finite for large ``n`` or deep gaps and makes
bound/exact comparisons share one arithmetic path.
"""

from __future__ import annotations

import math

from .core import SettingError, _no_flip

_E = math.e


def _power_product(factors) -> float:
    """exp(sum of exponent*log(base)); exact at base 0/1 and exponent 0."""
    total = 0.0
    for base, exponent in factors:
        if exponent == 0:
            continue
        if base == 0.0:
            return 0.0
        if base == 1.0:
            continue
        total += exponent * math.log(base)
    return math.exp(total)


def optimum_creation_lower_bound(n: int, k: int, d: int, p_m: float) -> float:
    """Lower bound on creating the all-ones string from two plateau parents.

    For parents with exactly k zeros each at Hamming distance 2d, one
    crossover-then-mutation trial reaches the optimum with probability at
    least ``4**-d * (1-p_m)**(n-k+d) * p_m**(k-d)`` (crossover repairs the 2d
    differing positions, mutation flips the k-d shared zeros and preserves
    everything else).
    """
    if not (1 <= k and 2 * k <= n):
        raise SettingError(f"k must satisfy 1 <= k <= n/2, got k={k}, n={n}")
    if not 0 <= d <= k:
        raise SettingError(f"d must lie in [0, k], got {d}")
    if not 0.0 < p_m < 1.0:
        raise SettingError(f"p_m = chi/n must lie in (0, 1), got {p_m}")
    return _power_product(((1.0 - p_m, n - k + d), (p_m, k - d), (0.5, 2 * d)))


def exact_optimum_probability(a: int, b: int, n: int, p_m: float) -> float:
    """Exact probability that crossover of the length-``n`` strings ``a`` and
    ``b`` plus mutation yields all-ones.

    Positions are independent: the crossover output bit is 1 with probability
    q in {0, 1/2, 1} depending on whether the parents carry zero, one, or two
    ones there, and the position ends up 1 with probability
    ``q*(1-p_m) + (1-q)*p_m``.  The result is the product over positions,
    grouped by the three position kinds.
    """
    if not 0.0 <= p_m <= 1.0:
        raise ValueError(f"p_m must lie in [0, 1], got {p_m}")
    both_one = (a & b).bit_count()
    differing = (a ^ b).bit_count()
    both_zero = n - both_one - differing
    return _power_product(((1.0 - p_m, both_one), (p_m, both_zero), (0.5, differing)))


def _check_transition_args(y: int, mu: int, chi: float, n: int, y_max: int) -> None:
    if mu < 2:
        raise ValueError(f"mu must be at least 2, got {mu}")
    if not 1 <= y <= y_max:
        raise ValueError(f"y must lie in [1, {y_max}], got {y}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0.0 <= chi <= n:
        raise ValueError(f"chi must lie in [0, n], got {chi}")


def close_crossover_increase_bound(y: int, mu: int, chi: float, n: int) -> float:
    """Leading term of the upper bound on the increase probability given a
    crossover event with parents at Hamming distance <= 2:

        (mu-y) * y * (mu+y) / (2 * (mu+1) * mu^2) * (1 - chi/n)^n

    The neglected additive error is O(((mu-y)/mu)^2 / n), the scale of
    :func:`mutation_only_increase_oscale`.
    """
    _check_transition_args(y, mu, chi, n, mu)
    lead = (mu - y) * y * (mu + y) / (2 * (mu + 1) * mu * mu)
    return lead * _no_flip(n, chi / n)


def close_crossover_decrease_bound(y: int, mu: int, chi: float, n: int) -> float:
    """Lower bound on the decrease probability given a crossover event with
    parents at Hamming distance <= 2, valid for 1 <= y <= mu-1:

        y * (mu-y) * (mu*(1+chi/2) + y*chi/2) / (2 * (mu+1) * mu^2) * (1 - chi/n)^n
    """
    _check_transition_args(y, mu, chi, n, mu - 1)
    lead = y * (mu - y) * (mu * (1 + chi / 2) + y * chi / 2) / (2 * (mu + 1) * mu * mu)
    return lead * _no_flip(n, chi / n)


def mutation_only_transition_bounds(y: int, mu: int, chi: float, n: int) -> tuple[float, float]:
    """(increase leading term, decrease lower bound) for mutation-only events.

    Both equal ``y*(mu-y) / (mu*(mu+1)) * (1-chi/n)^n``: for the increase this
    is the leading term of an upper bound with additive error
    O((mu-y)^2 / (n*mu^2)); for the decrease it is a valid lower bound.
    """
    _check_transition_args(y, mu, chi, n, mu)
    lead = y * (mu - y) / (mu * (mu + 1)) * _no_flip(n, chi / n)
    return lead, lead


def mutation_only_increase_oscale(y: int, mu: int, n: int) -> float:
    """Scale (mu-y)^2 / (n*mu^2) of the error neglected by the mutation-only
    and the close-crossover increase terms."""
    _check_transition_args(y, mu, 0.0, n, mu)
    return (mu - y) ** 2 / (n * mu * mu)


def survival_constant(lam: float, chi: float, p_c: float) -> float:
    """Exponential-decay constant for species-regrowth tail bounds:

        C = (2*lam - 1) * (1 + (1+lam)*chi) / (256*e) * p_c

    governing Pr[a species of size <= mu/2 regrows to lam*mu within t steps]
    <= t^2 * exp(-C*mu).

    C comes from a negative-drift argument.  The recentred process
    X_t = (species size) - mu/2 starts at a = 0, must travel to
    b = (lam - 1/2)*mu, moves by steps bounded by c = 1, and has one-sided
    drift at most epsilon = -(1 + (1+lam)*chi) * p_c / (64*e).  The drift
    theorem bounds the chance of reaching b within t steps by
    t^2 * exp(-b*|epsilon| / (2*c^2)), and b*|epsilon| / (2*c^2) = C*mu.
    """
    if not 0.5 < lam < 1.0:
        raise SettingError(f"lam must lie in (1/2, 1), got {lam}")
    if chi <= 0.0:
        raise SettingError(f"chi must be positive, got {chi}")
    if not 0.0 < p_c <= 1.0:
        raise SettingError(f"p_c must lie in (0, 1], got {p_c}")
    return (2 * lam - 1) * (1 + (1 + lam) * chi) / (256 * _E) * p_c


def runtime_bound(n: int, k: int, mu: int, chi: float, p_c: float) -> float:
    """Expected-evaluation upper bound (all hidden constants set to 1):

        n*sqrt(k)*(mu*ln(mu) + ln(n))
        + (mu*n + mu^2*ln(mu)) / (n^(1-k) * min(exp(C*mu/2), n^(k-1)))
        + n^(k-1)

    with C = survival_constant(3/4, chi, p_c).  The min is taken between
    exponents, so ``exp(C*mu/2)`` is never formed; the powers of n are not
    kept in log space, and when one leaves the double range (n^(k-1) for a
    deep gap) the bound is ``math.inf``.
    """
    if not (3 <= k and 2 * k <= n):
        raise ValueError(f"need 3 <= k <= n/2, got k={k}, n={n}")
    if mu < 2:
        raise ValueError(f"mu must be at least 2, got {mu}")
    c_surv = survival_constant(0.75, chi, p_c)
    log_n = math.log(n)
    term_plateau = n * math.sqrt(k) * (mu * math.log(mu) + log_n)
    log_min = min(c_surv * mu / 2, (k - 1) * log_n)
    try:
        term_jump = (mu * n + mu * mu * math.log(mu)) * math.exp((k - 1) * log_n - log_min)
        term_direct = math.exp((k - 1) * log_n)
    except OverflowError:
        return math.inf
    return term_plateau + term_jump + term_direct

