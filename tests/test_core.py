"""Bit-level primitives: jump fitness, Hamming tools, variation operators, RNG."""

from __future__ import annotations

import gc
import math
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from jumpga import (
    GaParams,
    Genotype,
    hamming_distance,
    jump_fitness,
    make_rng,
    standard_bit_mutation,
    uniform_crossover,
)
from jumpga.core import RandomStream, _floyd_mask, random_index_subset


def g(bits: int, n: int) -> Genotype:
    return Genotype(bits, n)


def from_string(s: str) -> Genotype:
    """Bit string, leftmost character = highest position index."""
    return Genotype(int(s, 2), len(s))


# ---------------------------------------------------------------------------
# jump fitness


def reference_jump(ones: int, n: int, k: int) -> int:
    if ones == n or ones <= n - k:
        return k + ones
    return n - ones


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_jump_fitness_matches_exhaustive_reference(k):
    n = 12
    best = None
    for bits in range(1 << n):
        ones = bin(bits).count("1")
        f = jump_fitness(g(bits, n), k)
        assert f == reference_jump(ones, n, k)
        best = f if best is None else max(best, f)
    assert best == n + k
    assert jump_fitness(g((1 << n) - 1, n), k) == n + k
    # The all-ones string is the unique maximizer.
    count_best = sum(1 for bits in range(1 << n) if jump_fitness(g(bits, n), k) == n + k)
    assert count_best == 1


def test_jump_fitness_frozen_examples():
    n, k = 100, 5
    full = (1 << n) - 1
    assert jump_fitness(g(full, n), k) == 105  # all ones: global optimum
    plateau = full ^ ((1 << 5) - 1)  # 95 ones
    assert jump_fitness(g(plateau, n), k) == 100
    in_gap = full ^ ((1 << 3) - 1)  # 97 ones
    assert jump_fitness(g(in_gap, n), k) == 3
    assert jump_fitness(g(0, n), k) == 5


def test_jump_fitness_plateau_dominates_gap():
    n = 14
    for k in (2, 3, 4):
        plateau_value = jump_fitness(g((1 << (n - k)) - 1, n), k)
        assert plateau_value == n
        for ones in range(n - k + 1, n):
            bits = (1 << ones) - 1
            assert jump_fitness(g(bits, n), k) == n - ones < plateau_value


def test_jump_fitness_rejects_bad_width():
    with pytest.raises(ValueError):
        jump_fitness(g(0, 10), 0)
    with pytest.raises(ValueError):
        jump_fitness(g(0, 10), 11)


# ---------------------------------------------------------------------------
# Hamming distance


def test_hamming_distance_examples():
    a = from_string("10110")
    assert hamming_distance(a, a) == 0
    assert hamming_distance(from_string("00000"), from_string("11111")) == 5
    assert hamming_distance(from_string("10110"), from_string("10011")) == 2


def test_hamming_distance_rejects_length_mismatch():
    with pytest.raises(ValueError):
        hamming_distance(g(0, 5), g(0, 6))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
def test_hamming_distance_is_xor_popcount_and_symmetric(x, y):
    a, b = g(x, 16), g(y, 16)
    d = hamming_distance(a, b)
    assert d == bin(x ^ y).count("1")
    assert d == hamming_distance(b, a)
    assert d == 0 or x != y


# ---------------------------------------------------------------------------
# uniform crossover


def test_uniform_crossover_copies_agreed_positions():
    rng = make_rng(101)
    for _ in range(300):
        n = 16
        x = rng.random_bits(n)
        y = rng.random_bits(n)
        child = uniform_crossover(g(x, n), g(y, n), rng)
        agree = ~(x ^ y)
        assert (child.bits ^ x) & agree & ((1 << n) - 1) == 0
        # Every child bit comes from one of the parents.
        assert child.bits & ~(x | y) == 0
        assert (x & y) & ~child.bits == 0


def test_uniform_crossover_identical_parents_are_fixed_points():
    rng = make_rng(102)
    a = g(0b1011010011, 10)
    for _ in range(50):
        assert uniform_crossover(a, a, rng) == a


def test_uniform_crossover_is_unbiased_between_complementary_parents():
    n, trials = 20, 100_000
    rng = make_rng(103)
    zeros, ones = g(0, n), g((1 << n) - 1, n)
    total = 0
    first_position = 0
    for _ in range(trials):
        child = uniform_crossover(zeros, ones, rng)
        total += child.bits.bit_count()
        first_position += child.bits & 1
    mean = total / trials
    sigma_mean = math.sqrt(n / 4) / math.sqrt(trials)
    assert abs(mean - n / 2) <= 3 * sigma_mean
    sigma_pos = 0.5 / math.sqrt(trials)
    assert abs(first_position / trials - 0.5) <= 4 * sigma_pos


def test_uniform_crossover_differing_positions_are_independent_coins():
    # Parents at Hamming distance 2: both differing bits inherited from the
    # first parent with probability exactly 1/4.
    n, trials = 20, 1_000_000
    full = (1 << n) - 1
    a = g(full ^ 0b011, n)
    b = g(full ^ 0b110, n)
    diff = a.bits ^ b.bits
    assert diff.bit_count() == 2
    rng = make_rng(104)
    hits = sum(
        (uniform_crossover(a, b, rng).bits & diff) == (a.bits & diff) for _ in range(trials)
    )
    p_hat = hits / trials
    sigma = math.sqrt(0.25 * 0.75 / trials)
    assert abs(p_hat - 0.25) <= 3 * sigma


# ---------------------------------------------------------------------------
# standard bit mutation


def test_standard_bit_mutation_rate_edges():
    rng = make_rng(105)
    a = g(0b10011010, 8)
    for _ in range(100):
        assert standard_bit_mutation(a, 0.0, rng) == a
    assert standard_bit_mutation(a, 1.0, rng).bits == a.bits ^ 0xFF
    with pytest.raises(ValueError):
        standard_bit_mutation(a, -0.1, rng)
    with pytest.raises(ValueError):
        standard_bit_mutation(a, 1.1, rng)


def test_standard_bit_mutation_no_flip_frequency():
    # P(no bit flips) at rate 1/100 over 100 bits is (0.99)^100 = 0.3660...
    n, trials = 100, 300_000
    expected = 0.99**100
    a = g(0, n)
    rng = make_rng(106)
    unchanged = sum(standard_bit_mutation(a, 0.01, rng) == a for _ in range(trials))
    p_hat = unchanged / trials
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(p_hat - expected) <= 3 * sigma


def test_standard_bit_mutation_mean_flip_count():
    n, trials = 100, 100_000
    a = g(0, n)
    rng = make_rng(107)
    total = sum(standard_bit_mutation(a, 1 / n, rng).bits.bit_count() for _ in range(trials))
    mean = total / trials
    sigma_mean = math.sqrt(n * (1 / n) * (1 - 1 / n)) / math.sqrt(trials)
    assert abs(mean - 1.0) <= 3 * sigma_mean


# ---------------------------------------------------------------------------
# random streams


def test_make_rng_is_deterministic_per_seed_and_stream():
    a = [make_rng(42, 7).uniform() for _ in range(1000)]
    b = [make_rng(42, 7).uniform() for _ in range(1000)]
    assert a == b
    c = [make_rng(42, 8).uniform() for _ in range(1000)]
    d = [make_rng(43, 7).uniform() for _ in range(1000)]
    assert a != c
    assert a != d


def test_random_stream_ranges():
    rng = make_rng(108)
    for _ in range(5000):
        u = rng.uniform()
        assert 0.0 <= u < 1.0
    assert {rng.index(10) for _ in range(2000)} == set(range(10))
    for _ in range(2000):
        assert 0 <= rng.random_bits(7) < 128
    wide = rng.random_bits(130)
    assert 0 <= wide < (1 << 130)


@pytest.mark.parametrize("offset", [4, 3, 2, 1, 0])
def test_random_bits_matches_per_uniform_draws_across_a_refill(offset):
    # n = 200 takes 4 uniforms; from BLOCK-3 on, the buffer refills inside them.
    n, block = 200, RandomStream.BLOCK
    rng, twin = make_rng(110), make_rng(110)
    for stream in (rng, twin):
        for _ in range(block - offset):
            stream.uniform()
    for _ in range(3):
        mask = rng.random_bits(n)
        want = 0
        for i in range(4):
            want |= int(twin.uniform() * 2**53) << (53 * i)
        assert mask == want & ((1 << n) - 1)
        assert rng._pos == twin._pos
    assert rng.uniform() == twin.uniform()


class FloatBufferStream:
    """Reference stream: the block of numpy uniforms kept as floats, every draw
    derived from ``uniform()`` as the documented draw order states it."""

    def __init__(self, seed: int, stream: int = 0):
        self.generator = make_rng(seed, stream).generator
        self.buf: list[float] = []
        self.pos = 0

    def uniform(self) -> float:
        if self.pos == len(self.buf):
            self.buf = self.generator.random(RandomStream.BLOCK).tolist()
            self.pos = 0
        self.pos += 1
        return self.buf[self.pos - 1]

    def index(self, bound: int) -> int:
        return min(int(self.uniform() * bound), bound - 1)

    def random_bits(self, nbits: int) -> int:
        out = 0
        for i in range((nbits + 52) // 53):
            out |= int(self.uniform() * 2**53) << (53 * i)
        return out & ((1 << nbits) - 1)


@pytest.mark.parametrize("nbits", [1, 52, 53, 54, 200])
def test_draws_equal_the_float_buffer_reconstruction(nbits):
    # One cycle takes w + 3 uniforms (w for the mask); shifting its start by
    # 0..w+2 puts the refill at every position of the cycle, and 5000 cycles
    # run across at least one refill from every start.
    w = (nbits + 52) // 53
    for offset in range(w + 3):
        rng, ref = make_rng(112, offset), FloatBufferStream(112, offset)
        for _ in range(offset):
            assert rng.uniform() == ref.uniform()
        for _ in range(5000 // (w + 3)):
            assert rng.random_bits(nbits) == ref.random_bits(nbits)
            assert rng.uniform() == ref.uniform()
            assert rng.index(7) == ref.index(7)
            assert rng.index(1_000_003) == ref.index(1_000_003)
        assert rng._pos == ref.pos


def test_cursor_counts_the_draws_of_the_current_block_as_the_float_buffer_does():
    block = RandomStream.BLOCK
    rng, ref = make_rng(116), FloatBufferStream(116)
    assert rng._pos == ref.pos == 0
    for _ in range(block):
        assert rng.uniform() == ref.uniform()
    assert rng._pos == ref.pos == block
    assert rng.uniform() == ref.uniform()
    assert rng._pos == ref.pos == 1


def test_random_bits_of_zero_width_draws_nothing():
    rng, twin = make_rng(117), make_rng(117)
    assert rng.random_bits(0) == 0
    assert rng._pos == 0
    assert rng.uniform() == twin.uniform()


def test_a_stream_is_freed_without_the_cyclic_collector():
    # A stream that held itself through its block source would stay alive
    # until the next collection, with its block of uniforms.
    rng = make_rng(118)
    for _ in range(RandomStream.BLOCK + 3):
        rng.uniform()
    assert rng._pos == 3
    ref = weakref.ref(rng)
    gc.disable()
    try:
        del rng
        assert ref() is None
    finally:
        gc.enable()


def floyd_reference(rng, n: int, m: int) -> tuple[set[int], int]:
    """Floyd's sampler on a set, as first written; also counts colliding draws."""
    chosen: set[int] = set()
    collisions = 0
    for j in range(n - m, n):
        t = rng.index(j + 1)
        if t in chosen:
            chosen.add(j)
            collisions += 1
        else:
            chosen.add(t)
    return chosen, collisions


def test_bitmask_floyd_matches_the_set_sampler_for_every_subset_size():
    n = 24
    collisions = 0
    for m in range(n + 1):
        rng, twin = make_rng(113, m), make_rng(113, m)
        for _ in range(40):
            want, hit = floyd_reference(twin, n, m)
            collisions += hit
            assert _floyd_mask(rng, n, m) == sum(1 << i for i in want)
            assert rng._pos == twin._pos
            assert random_index_subset(rng, n, m) == floyd_reference(twin, n, m)[0]
            assert rng._pos == twin._pos
    assert collisions > 0


def test_mutation_flips_the_positions_of_the_set_sampler_on_a_twin_stream():
    # At rate 1/2 on 12 bits every flip count from 0 to 12 occurs.
    n, p = 12, 0.5
    rng, twin = make_rng(114), make_rng(114)
    g0 = Genotype(0b101100111010, n)
    sizes = Counter()
    for _ in range(20_000):
        m = twin.binomial(n, p)
        sizes[m] += 1
        if m == n:
            want = g0.bits ^ ((1 << n) - 1)
        else:
            want = g0.bits ^ sum(1 << i for i in floyd_reference(twin, n, m)[0])
        assert standard_bit_mutation(g0, p, rng).bits == want
        assert rng._pos == twin._pos
    assert set(sizes) == set(range(n + 1))


def test_interleaved_binomial_settings_equal_draws_on_fresh_streams():
    # Cells differ in n only, in p only, or in both, and each comes back later.
    cells = [(200, 1 / 200), (40, 1 / 40), (200, 0.3), (40, 0.3), (12, 0.5), (12, 1 / 200)]
    rng = make_rng(115)
    for used in range(300):
        n, p = cells[used % len(cells)]
        fresh = make_rng(115)
        for _ in range(used):
            fresh.uniform()
        assert rng.binomial(n, p) == fresh.binomial(n, p)


def test_binomial_edge_rates_and_moments():
    rng = make_rng(109)
    assert rng.binomial(50, 0.0) == 0
    assert rng.binomial(50, 1.0) == 50
    n, p, trials = 20, 0.3, 200_000
    draws = [rng.binomial(n, p) for _ in range(trials)]
    assert all(0 <= x <= n for x in draws)
    mean = sum(draws) / trials
    var = sum((x - mean) ** 2 for x in draws) / trials
    sigma_mean = math.sqrt(n * p * (1 - p)) / math.sqrt(trials)
    assert abs(mean - n * p) <= 3 * sigma_mean
    assert abs(var - n * p * (1 - p)) / (n * p * (1 - p)) <= 0.03


def test_random_index_subset_is_uniform_over_subsets():
    rng = make_rng(110)
    for m in (0, 1, 3, 5):
        s = random_index_subset(rng, 5, m)
        assert len(s) == m
        assert all(0 <= i < 5 for i in s)
    with pytest.raises(ValueError):
        random_index_subset(rng, 5, 6)

    trials = 100_000
    counts = Counter(frozenset(random_index_subset(rng, 5, 2)) for _ in range(trials))
    assert len(counts) == 10
    expected = trials / 10
    sigma = math.sqrt(trials * 0.1 * 0.9)
    for c in counts.values():
        assert abs(c - expected) <= 4 * sigma


def test_ga_params_validation_and_derived_rates():
    p = GaParams(n=100, k=5, mu=20, p_c=0.5, chi=2.0, seed=3)
    assert p.p_m == 0.02
    assert p.optimum_fitness == 105
    for bad in (
        dict(n=0, k=1, mu=2, p_c=0.5, chi=1.0),
        dict(n=10, k=0, mu=2, p_c=0.5, chi=1.0),
        dict(n=10, k=6, mu=2, p_c=0.5, chi=1.0),
        dict(n=10, k=2, mu=1, p_c=0.5, chi=1.0),
        dict(n=10, k=2, mu=4, p_c=1.5, chi=1.0),
        dict(n=10, k=2, mu=4, p_c=0.5, chi=0.0),
        dict(n=10, k=2, mu=4, p_c=0.5, chi=11.0),
        dict(n=10, k=2, mu=4, p_c=0.5, chi=5e-324),  # chi / n rounds to 0
        dict(n=10, k=2, mu=4, p_c=0.5, chi=1.0, seed=-1),
    ):
        with pytest.raises(ValueError):
            GaParams(**bad)
