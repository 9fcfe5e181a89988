"""Cost of one ``figure1`` job by part: the runner, the CSV writer, the SVG writer.

A job is what ``jumpga figure1`` does at the benchmark's ``distance_series``
shape (n = 100, k = 4, mu = 32, p_c = 1, three replicates, a cap of 4 000
steps): :func:`jumpga.run_figure1`, then one CSV and one SVG per replicate
through ``jumpga.output``, all with one ``TextCache``, as ``jumpga figure1``
writes them.  Every repeat runs the same job on the same seed, so all repeats
do the same work; the table reports the best repeat of each part, and the
peak memory that ``tracemalloc`` traces during each part of one more, untimed
repeat (the total row: during the whole job).

    PYTHONPATH=src python studies/figure1_cost.py [--max-iterations 4000] [--repeats 5]

It prints a markdown table, one row per part and a total row, then the rows
and the unchanged stretches the job's series hold and the number texts the
job formats into its cache, on stdout, and its wall time on stderr.  Timings
depend on the machine and its load, so two runs agree in their rows and
counts, not in their times.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

from jumpga import GaParams, run_figure1
from jumpga.output import TextCache, render_svg, write_series_csv

PARAMS = GaParams(n=100, k=4, mu=32, p_c=1.0, chi=1.0, seed=1)
REPLICATES = 3
PARTS = ("runner", "CSV writer", "SVG writer")


def job(max_iterations: int, out: Path, mark) -> tuple[tuple[float, ...], list, TextCache]:
    """One job's parts, each measured by ``mark()`` called after it, the series
    it wrote and its cache."""
    series = run_figure1(PARAMS, REPLICATES, max_iterations=max_iterations)
    ran = mark()
    header = ("iteration",) + tuple(f"d{d}" for d in series[0].distances)
    cache = TextCache()
    for dr in series:
        write_series_csv(dr.runs, out / f"figure1_seed{dr.replicate}.csv", header, cache=cache)
    wrote = mark()
    for dr in series:
        render_svg(dr.runs, out / f"figure1_seed{dr.replicate}.svg", dr.distances, cache=cache)
    return (ran, wrote, mark()), series, cache


def stopwatch():
    """A ``mark`` that gives the milliseconds since its last call or its making."""
    last = time.perf_counter()

    def mark() -> float:
        nonlocal last
        begin, last = last, time.perf_counter()
        return 1e3 * (last - begin)

    return mark


def traced_peak() -> float:
    """A ``mark`` that gives the peak MiB traced since its last call."""
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.reset_peak()
    return peak / 2**20


def formatted(cache: TextCache) -> int:
    """The number texts a job formatted into its cache: frequencies, zeros and
    x labels, each once."""
    texts = len(cache.floats) + len(cache.zeros)
    return texts + sum(len(labels) for labels in cache.labels.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--max-iterations", type=int, default=4000, help="step cap per replicate")
    parser.add_argument("--repeats", type=int, default=5, help="jobs to time; the best counts")
    args = parser.parse_args(argv)
    if args.max_iterations < 0 or args.repeats < 1:
        parser.error("--max-iterations must be at least 0 and --repeats at least 1")
    begin = time.perf_counter()
    best = [float("inf")] * len(PARTS)
    with tempfile.TemporaryDirectory() as out:
        for _ in range(args.repeats):
            ms, series, cache = job(args.max_iterations, Path(out), stopwatch())
            best = [min(b, m) for b, m in zip(best, ms)]
        tracemalloc.start()
        try:
            mib, _, _ = job(args.max_iterations, Path(out), traced_peak)
        finally:
            tracemalloc.stop()
    print(f"| part | ms per job (best of {args.repeats}) | peak traced MiB |")
    print("| --- | --- | --- |")
    for part, ms, peak in zip(PARTS, best, mib):
        print(f"| {part} | {ms:.2f} | {peak:.2f} |")
    print(f"| total | {sum(best):.2f} | {max(mib):.2f} |")
    rows = sum(len(times) for dr in series for times, _ in dr.runs)
    stretches = sum(len(dr.runs) for dr in series)
    print(f"\n{rows} rows in {stretches} unchanged stretches per job")
    print(f"{formatted(cache)} number texts formatted per job")
    print(f"wall {time.perf_counter() - begin:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
