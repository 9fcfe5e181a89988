"""Cost of turning a uniform into an integer: the index conversion and the flip count.

For each n, at chi = 1, it times loops over one list of the stream's
uniforms ``u``:

- ``u * n`` alone, then ``int(u * n)`` and ``floor(u * n)``, the two ways of
  turning a uniform into an index below n (equal on [0, 1));
- the flip count ``bisect_left(cdf, u)`` of the mutation table ``cdf`` of
  ``GaParams``, and the same count with the table's first two entries
  checked before the bisection, as ``jumpga.ga.ga_step`` takes it.

Each cell is the best of ``--repeats`` timings, in nanoseconds per uniform
above the bare loop ``for u in us: pass``.  The table also gives the table's
length and the share of uniforms that its first two entries decide.

    PYTHONPATH=src python studies/draw_cost.py [--uniforms 100000] [--repeats 7]

It prints a markdown table, one row per n, on stdout and its wall time on
stderr.  Timings depend on the machine and its load, so two runs agree in
their rows, not in their numbers.
"""

from __future__ import annotations

import argparse
import sys
import time
import timeit
from bisect import bisect_left
from math import floor

from jumpga import GaParams, make_rng

NS = (40, 100, 200)
SEED = 1
BODIES = {
    "u * n": "u * n",
    "int(u * n)": "int(u * n)",
    "floor(u * n)": "floor(u * n)",
    "bisect": "bisect_left(cdf, u)",
    "two entries, then bisect": "0 if u <= cdf[0] else 1 if u <= cdf[1] else bisect_left(cdf, u, 2)",
}


def ns_per_uniform(body: str, namespace: dict, repeats: int) -> float:
    """Best of ``repeats`` timings of ``body`` over ``namespace['us']``, in ns per uniform."""
    timer = timeit.Timer(f"for u in us: {body}", globals=namespace)
    return min(timer.repeat(repeats, 1)) / len(namespace["us"]) * 1e9


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--uniforms", type=int, default=100_000, help="uniforms per loop")
    parser.add_argument("--repeats", type=int, default=7, help="timings per cell")
    args = parser.parse_args(argv)
    if args.uniforms < 1 or args.repeats < 1:
        parser.error("--uniforms and --repeats must be at least 1")
    begin = time.perf_counter()
    rng = make_rng(SEED)
    us = [rng.uniform() for _ in range(args.uniforms)]
    print(f"| n | table entries | decided by two entries | {' | '.join(BODIES)} |")
    print("| --- " * (3 + len(BODIES)) + "|")
    for n in NS:
        cdf = GaParams(n=n, k=1, mu=2, p_c=0.5, chi=1.0).mutation_cdf
        namespace = {"us": us, "n": n, "cdf": cdf, "floor": floor, "bisect_left": bisect_left}
        bare = ns_per_uniform("pass", namespace, args.repeats)
        cells = [ns_per_uniform(body, namespace, args.repeats) - bare for body in BODIES.values()]
        share = sum(u <= cdf[1] for u in us) / len(us)
        print(f"| {n} | {len(cdf)} | {share:.3f} | " + " | ".join(f"{ns:.1f}" for ns in cells) + " |")
    print(f"wall {time.perf_counter() - begin:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
