"""Cost of one bare step: microseconds per item of ``jumpga.steps``.

Each setting steps a fixed number of times through ``steps`` with nothing
consuming the items, so the time is the step kernel's and its loop's alone.
Every repeat starts from the same population on the same stream, so all
repeats do the same work; the table reports the best repeat.  The p_c = 1
rows start from two plateau species at Hamming distance 2, the shape of the
sweep's close cells, so every step draws the crossover mask: one, two and
four 53-bit words at n = 53, 100 and 200.

    PYTHONPATH=src python studies/step_cost.py [--steps 20000]

It prints a markdown table, one row per setting, on stdout and its wall time
on stderr.  Timings depend on the machine and its load, so two runs agree in
their rows, not in their numbers.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import deque

from jumpga import (
    GaParams,
    init_monomorphic_plateau,
    init_uniform,
    make_rng,
    steps,
    two_species_population,
)

# (n, mu, p_c, start): k = 3, chi = 1 throughout.
SETTINGS = (
    (200, 12, 0.5, "plateau"),
    (200, 32, 0.5, "plateau"),
    (200, 128, 0.5, "plateau"),
    (40, 12, 0.5, "uniform"),
    (53, 16, 1.0, "two_species"),
    (100, 16, 1.0, "two_species"),
    (200, 16, 1.0, "two_species"),
)
STARTS = {
    "plateau": init_monomorphic_plateau,
    "uniform": init_uniform,
    "two_species": lambda params, rng: two_species_population(params, params.mu // 2, 1, rng)[0],
}
SEED = 1
REPEATS = 5


def us_per_step(n: int, mu: int, p_c: float, start: str, count: int) -> float:
    """Best of ``REPEATS`` timings of ``count`` bare steps, in microseconds per step."""
    params = GaParams(n=n, k=3, mu=mu, p_c=p_c, chi=1.0, seed=SEED)
    pop = STARTS[start](params, make_rng(SEED, 0))
    best = float("inf")
    for _ in range(REPEATS):
        rng = make_rng(SEED, 1)
        begin = time.perf_counter()
        deque(steps(pop, params, rng, count), maxlen=0)
        best = min(best, time.perf_counter() - begin)
    return best / count * 1e6


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--steps", type=int, default=20_000, help="steps per repeat")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be at least 1")
    begin = time.perf_counter()
    print(f"| n | k | mu | p_c | start | us/step (best of {REPEATS} x {args.steps} steps) |")
    print("| --- | --- | --- | --- | --- | --- |")
    for n, mu, p_c, start in SETTINGS:
        us = us_per_step(n, mu, p_c, start, args.steps)
        print(f"| {n} | 3 | {mu} | {p_c:g} | {start} | {us:.2f} |")
    print(f"wall {time.perf_counter() - begin:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
