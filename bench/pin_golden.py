"""Pin the sha256 digests of the artifacts each workload writes at the default seed.

    python3 bench/pin_golden.py [WORKLOAD ...]

Run from the root of a checkout.  Rewrites ``bench/golden.json`` for the named
workloads (all by default): for each, the digests of every artifact of its
first jobs, enough for three times the jobs one run of ``run_seconds``
completes at the nominal job time.  Re-pin only in a change that is meant to
alter the random draws, and say so in CHANGES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

import workloads
from run import child_env, job_failures, run_worker

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    run_seconds = json.loads((root / "BENCHMARK.json").read_text())["run_seconds"]
    golden_path = HERE / "golden.json"
    golden = json.loads(golden_path.read_text()) if golden_path.is_file() else {}
    for name in sys.argv[1:] or sorted(workloads.WORKLOADS):
        jobs = math.ceil(3 * run_seconds / workloads.WORKLOADS[name]["job_s"])
        out = root / ".bench_out" / f"pin-{name}"
        args = argparse.Namespace(workload=name, seed=workloads.DEFAULT_SEED, tiny=False)
        try:
            report = run_worker(args, child_env(root), out, trace=False, jobs=jobs, timeout=1800)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        failures = job_failures(report, golden=[])
        if failures:
            print("\n".join(failures), file=sys.stderr)
            return 1
        golden[name] = [job["digests"] for job in report["jobs"]]
        print(f"{name}: pinned {jobs} jobs", file=sys.stderr)
    golden_path.write_text(
        "{\n"
        + ",\n".join(
            f"{json.dumps(name)}: [\n"
            + ",\n".join(json.dumps(d, sort_keys=True) for d in golden[name])
            + "\n]"
            for name in sorted(golden)
        )
        + "\n}\n"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
