"""Cost of one ``figure1`` job by part: the runner, the CSV writer, the SVG writer.

A job is what ``jumpga figure1`` does at the benchmark's ``distance_series``
shape (n = 100, k = 4, mu = 32, p_c = 1, three replicates, a cap of 4 000
steps): :func:`jumpga.run_figure1`, then one CSV and one SVG per replicate
through ``jumpga.output``.  Every repeat runs the same job on the same seed,
so all repeats do the same work; the table reports the best repeat of each
part.

    PYTHONPATH=src python studies/figure1_cost.py [--max-iterations 4000] [--repeats 5]

It prints a markdown table, one row per part and a total row, then the rows
and the unchanged stretches the job's series hold, on stdout, and its wall
time on stderr.  Timings depend on the machine and its load, so two runs agree
in their rows and counts, not in their times.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import time
from pathlib import Path

from jumpga import GaParams, run_figure1
from jumpga.output import render_svg, write_series_csv

PARAMS = GaParams(n=100, k=4, mu=32, p_c=1.0, chi=1.0, seed=1)
REPLICATES = 3
PARTS = ("runner", "CSV writer", "SVG writer")


def job_ms(max_iterations: int, out: Path) -> tuple[tuple[float, ...], list]:
    """One job's milliseconds per part, and the series it wrote."""
    begin = time.perf_counter()
    series = run_figure1(PARAMS, REPLICATES, max_iterations=max_iterations)
    ran = time.perf_counter()
    header = ("iteration",) + tuple(f"d{d}" for d in series[0].distances)
    for dr in series:
        write_series_csv(dr.runs, out / f"figure1_seed{dr.replicate}.csv", header)
    wrote = time.perf_counter()
    for dr in series:
        render_svg(dr.runs, out / f"figure1_seed{dr.replicate}.svg", dr.distances)
    drew = time.perf_counter()
    return (1e3 * (ran - begin), 1e3 * (wrote - ran), 1e3 * (drew - wrote)), series


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
            ms, series = job_ms(args.max_iterations, Path(out))
            best = [min(b, m) for b, m in zip(best, ms)]
    print(f"| part | ms per job (best of {args.repeats}) |")
    print("| --- | --- |")
    for part, ms in zip(PARTS, best):
        print(f"| {part} | {ms:.2f} |")
    print(f"| total | {sum(best):.2f} |")
    rows = sum(len(dr.rows) for dr in series)
    stretches = sum(len(dr.runs) for dr in series)
    print(f"\n{rows} rows in {stretches} unchanged stretches per job")
    print(f"wall {time.perf_counter() - begin:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
