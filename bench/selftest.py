"""Self-test of the benchmark harness; takes about a minute.

    python3 bench/selftest.py

Run from the root of a checkout.  Runs every workload at ``--tiny`` size with
tracing off and on, and asserts that each run passes its checks and reports
exactly the metrics BENCHMARK.json names, with the same units.  Then runs the
benchmark in a directory holding only BENCHMARK.json and the benchmark's own
files, where it must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload]
    cmd += ["--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300)


def main() -> int:
    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(root, workload, trace)
            label = f"{workload} trace={trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no result line (exit {proc.returncode})\n{proc.stderr}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: checks failed (exit {proc.returncode})\n{proc.stderr}")
            if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
                problems.append(f"{label}: malformed result {sorted(result)}")
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            if reported != expected[trace]:
                missing = sorted(set(expected[trace]) - set(reported))
                extra = sorted(set(reported) - set(expected[trace]))
                wrong = sorted(n for n in reported if n in expected[trace] and reported[n] != expected[trace][n])
                problems.append(f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}")
            print(f"{label}: {len(reported)} metrics, {result['attempted']} jobs", file=sys.stderr)

    bare = root / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(root / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(root / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
        print(f"bare directory: exit {proc.returncode}", file=sys.stderr)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest: " + ("FAILED" if problems else "passed"), file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
