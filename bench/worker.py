"""One benchmark process: runs a workload's jobs in-process and reports them as JSON.

Closed loop, one client, no threads: job ``j + 1`` starts only after job
``j`` has returned from ``jumpga.cli.main(argv)``.  With ``--seconds`` jobs
run until that much time has passed; with ``--jobs`` exactly that many run.
Only the ``cli.main`` call is timed; reading, checking and hashing the
artifacts happens between jobs.  With ``--cold-starts N`` the worker also
times N fresh interpreters that import ``jumpga.cli`` and resolve the
workload's configuration, spread evenly over the run so that they sample
the same CPU speed as the jobs.  The last stdout line is the JSON report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import workloads


def calibration_s() -> float:
    """Seconds taken by a fixed pure-Python loop of integer, tuple and dict work.

    Timed before every job and after the last one, so that run.py can rescale
    each job's wall time to a fixed CPU speed: on a shared host the speed of
    identical work drifts by tens of percent over seconds.
    """
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(60_000):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x.bit_count()
        table[x & 1023] = (acc, i)
    return time.perf_counter() - start


def cold_start(argv: list[str]) -> float:
    """Wall time of a fresh interpreter that imports jumpga.cli and resolves argv's config."""
    code = "import sys, jumpga.cli; jumpga.cli.parse_cli(sys.argv[1:])"
    start = time.perf_counter()
    # No timeout: waiting with one polls every 50 ms, which would quantize the times.
    subprocess.run([sys.executable, "-c", code, *argv], check=True)
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--cold-starts", type=int, default=0)
    limit = ap.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--jobs", type=int)
    args = ap.parse_args()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import jumpga.cli as cli

    args.out.mkdir(parents=True, exist_ok=True)
    cold_argv = workloads.job_argv(args.workload, args.seed, 0, args.out / "cold", args.tiny)
    jobs = []
    setup = []
    start = time.perf_counter()
    while True:
        index = len(jobs)
        elapsed = time.perf_counter() - start
        if len(setup) < args.cold_starts and elapsed >= len(setup) * args.seconds / args.cold_starts:
            setup.append(cold_start(cold_argv))
            continue
        if args.jobs is not None and index >= args.jobs:
            break
        if args.seconds is not None and index and elapsed >= args.seconds:
            break
        out = args.out / f"job{index}"
        argv = workloads.job_argv(args.workload, args.seed, index, out, args.tiny)
        if tracer is not None:
            tracer.job = index
        calibration = calibration_s()
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
        if workloads.completed(args.workload, rc):
            steps, errors = workloads.read_artifacts(argv, out)
        else:
            steps, errors = 0, [f"exit code {rc}"]
        jobs.append(
            {
                "exit_code": rc,
                "calibration_s": calibration,
                "wall_s": wall,
                "steps": steps,
                "errors": errors,
                "digests": workloads.digests(out) if out.is_dir() else {},
            }
        )
        shutil.rmtree(out, ignore_errors=True)

    while len(setup) < args.cold_starts:
        setup.append(cold_start(cold_argv))
    report = {
        "jobs": jobs,
        "setup_s": setup,
        "calibration_after_s": calibration_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["layers"] = tracer.metrics(len(jobs))
        report["self_s"] = sum(tracer.self_ns().values()) / 1e9
        tracer.dump_spans(args.out / "spans.json")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
