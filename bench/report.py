"""Run the benchmark over several seeds and print every metric with its spread.

    python3 bench/report.py [--workloads a,b] [--seeds 1,2,3] [--trace 0|1|both]
                            [--seconds S] [--repeats N]

Run from the root of a checkout.  For each workload, seed and trace mode it
runs ``bench/run.py`` (``--repeats`` times) and then prints, per workload,
every end-to-end and per-layer metric by name with its unit, and
``failed_frac`` (failed jobs over attempted jobs of each run).  Each comes
with the sample count, the median and quartiles over the runs, and the
spread: the distance between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them.  An end-to-end spread
above its bound in BENCHMARK.json is marked.  Exits 1 when any run fails a
correctness check or a deterministic per-layer count differs between
repeats of one seed, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from tracer import DETERMINISTIC

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or result is None or not result["correct"]:
        return result, proc.stderr or f"exit code {proc.returncode}"
    return result, ""


def spread(values: list[float]) -> tuple[float, float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1,2,3")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="both")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--repeats", type=int, default=1)
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = defaultdict(list)
        units: dict[str, str] = {}
        for trace in modes:
            for seed in seeds:
                seen: dict[str, float] = {}
                for _ in range(args.repeats):
                    result, errors = run_once(workload, seed, args.seconds, trace)
                    if errors:
                        ok = False
                        print(f"{workload} seed {seed} trace {trace}: FAILED\n{errors}", file=sys.stderr)
                    if result is None:
                        continue
                    values["failed_frac"].append(result["failed"] / result["attempted"])
                    units["failed_frac"] = "ratio"
                    for name, m in result["metrics"].items():
                        values[name].append(m["value"])
                        units[name] = m["unit"]
                        if name in DETERMINISTIC and seen.setdefault(name, m["value"]) != m["value"]:
                            ok = False
                            print(f"{workload} seed {seed}: {name} differs between repeats")
        print(f"\n{workload}  (seeds {args.seeds}, {args.repeats} run(s) each, {args.seconds:g} s)")
        print(f"  {'metric':<48} {'unit':<8} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, vals in values.items():
            median, q1, q3, rel = spread(vals)
            mark = ""
            if name in bounds:
                mark = f"  bound {bounds[name]:g}" + ("  SPREAD ABOVE BOUND" if rel > bounds[name] else "")
            print(
                f"  {name:<48} {units[name]:<8} {len(vals):>3} {median:>12.6g} {q1:>12.6g}"
                f" {q3:>12.6g} {rel:>8.4f}{mark}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
