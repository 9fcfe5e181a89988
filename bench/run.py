"""jumpga benchmark: one workload, one seed, one run; the result is stdout's last line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the root of a checkout; the program is imported from ``src/``.

``--trace 0`` times the workload in a fresh process with tracing off, along
with cold starts of the CLI spread over the run, and reports the end-to-end
metrics.  ``--trace 1`` runs a fixed number of jobs twice, untraced and then
traced, each in a fresh process; it checks that both passes write
byte-identical artifacts with identical step counts and reports the
per-layer metrics.  ``--tiny`` shrinks every job for the self-test.

Every job must run to the end (exit 0; for ``sweep`` also 3, its verdict
that a bound cell missed) and write artifacts that pass the workload's own
consistency checks; at the default seed they must also match the sha256
digests pinned in ``golden.json``.  Environment and the human-readable report
go to stderr.  Exit status: 0 if every check passed, 1 if a check failed,
2 if the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
# Fresh interpreters timed per timed run; setup_s is their median.
COLD_STARTS = 11
# The per-layer self times must add up to the traced wall time within this share.
SELF_TIME_TOLERANCE = 0.01

# Job wall times are rescaled to the CPU speed at which worker.calibration_s()
# takes this long, using the loop's time before and after each job.  On the
# 2-vCPU Xeon VM the bounds were set on, the loop took 0.012-0.024 s.
CALIBRATION_S = 0.017

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "steps/s", "peak_rss_mb": "MiB"}


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "JUMPGA_OUTPUT_DIR"}
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


def run_worker(
    args, env: dict, out: Path, trace: bool, jobs: int | None = None, timeout: float = 150
) -> dict:
    """Run worker.py in a fresh process: ``jobs`` jobs, or --seconds of jobs with cold starts."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={args.workload}",
        f"--seed={args.seed}",
        f"--out={out}",
    ]
    if jobs is not None:
        cmd.append(f"--jobs={jobs}")
    else:
        cmd += [f"--seconds={args.seconds}", f"--cold-starts={COLD_STARTS}"]
    cmd += ["--trace"] * trace + ["--tiny"] * args.tiny
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_digests(args) -> list[dict[str, str]]:
    """Pinned digests of the first jobs; pinned only at the default seed and size."""
    if args.seed != workloads.DEFAULT_SEED or args.tiny:
        return []
    return json.loads((HERE / "golden.json").read_text())[args.workload]


def job_failures(report: dict, golden: list[dict[str, str]]) -> list[str]:
    """One line per failed job: non-zero exit, inconsistent or unpinned artifacts."""
    failures = []
    for index, job in enumerate(report["jobs"]):
        errors = list(job["errors"])
        if index < len(golden) and job["digests"] != golden[index]:
            errors.append("artifact digests differ from golden.json")
        failures += [f"job {index}: {e}" for e in errors]
    return failures


def scaled_walls(report: dict) -> list[float]:
    """Each job's wall time at the CPU speed where the calibration loop takes CALIBRATION_S."""
    cal = [job["calibration_s"] for job in report["jobs"]] + [report["calibration_after_s"]]
    return [
        job["wall_s"] * 2 * CALIBRATION_S / (cal[i] + cal[i + 1])
        for i, job in enumerate(report["jobs"])
    ]


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} median={q2:.6g} q3={q3:.6g}"


def timed_run(args, env: dict, out: Path, log) -> tuple[dict, int, list[str]]:
    report = run_worker(args, env, out, trace=False)
    starts = report["setup_s"]
    jobs = report["jobs"]
    walls = scaled_walls(report)
    steps = sum(job["steps"] for job in jobs)
    if not steps:
        raise RuntimeError(f"no job ran a step; first job: {jobs[0]['errors']}")
    metrics = {
        "setup_s": statistics.median(starts),
        # A job of the workload's nominal step count: the seed's luck in how
        # many steps its jobs need does not move it.
        "wall_s": sum(walls) / steps * workloads.WORKLOADS[args.workload]["nominal_steps"],
        "steps_per_s": steps / sum(walls),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    failures = job_failures(report, golden_digests(args))
    raw = sum(job["wall_s"] for job in jobs)
    log(f"  setup_s spread over cold starts: {quartiles(starts)}")
    log(f"  calibration loop: {quartiles([job['calibration_s'] for job in jobs])}")
    log(f"  mean job wall time: {sum(walls) / len(jobs):.6g} s, unscaled {raw / len(jobs):.6g} s")
    log(f"  unscaled steps_per_s: {steps / raw:.6g} steps/s")
    log(f"  job wall time spread: {quartiles(walls)}")
    log(f"  job steps/s spread: {quartiles([job['steps'] / w for job, w in zip(jobs, walls)])}")
    log(f"  steps: {steps} in {len(jobs)} jobs, {sum(job['exit_code'] != 0 for job in jobs)} with exit 3")
    log(f"  failed_frac: {len({f.split(':')[0] for f in failures}) / len(jobs):.6g} ratio")
    return metrics, len(jobs), failures


def traced_run(args, env: dict, out: Path, log) -> tuple[dict, int, list[str]]:
    count = workloads.trace_jobs(args.workload, args.seconds)
    plain = run_worker(args, env, out / "untraced", trace=False, jobs=count)
    traced = run_worker(args, env, out / "traced", trace=True, jobs=count)
    golden = golden_digests(args)
    failures = job_failures(plain, golden) + job_failures(traced, golden)
    for index, (a, b) in enumerate(zip(plain["jobs"], traced["jobs"])):
        if a["digests"] != b["digests"]:
            failures.append(f"job {index}: traced artifacts differ from untraced")
        if (a["steps"], a["exit_code"]) != (b["steps"], b["exit_code"]):
            failures.append(f"job {index}: traced step count or exit code differs from untraced")
    metrics = traced["layers"]
    steps = sum(job["steps"] for job in traced["jobs"])
    if metrics["ga.ga_step.calls"] != steps:
        failures.append(f"traced ga_step calls {metrics['ga.ga_step.calls']} != {steps} from artifacts")
    traced_wall = sum(job["wall_s"] for job in traced["jobs"])
    if abs(traced["self_s"] / traced_wall - 1) > SELF_TIME_TOLERANCE:
        failures.append(f"self times sum to {traced['self_s']:.6g} s of {traced_wall:.6g} s traced")
    plain_wall = sum(scaled_walls(plain))
    metrics["trace.overhead_frac"] = sum(scaled_walls(traced)) / plain_wall - 1
    spans = out / "traced" / "spans.json"
    if spans.is_file():
        (out.parent / "spans").mkdir(exist_ok=True)
        shutil.move(spans, out.parent / "spans" / f"{args.workload}-seed{args.seed}.json")
    log(f"  traced {count} jobs, {steps} steps; untraced {plain_wall:.6g} s, traced {traced_wall:.6g} s")
    log(f"  self times cover {traced['self_s'] / traced_wall:.6f} of traced wall time")
    return metrics, 2 * count, failures


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    suffix = name.rsplit(".", 1)[-1]
    if suffix.endswith("_frac") or suffix == "self_share":
        return "ratio"
    if suffix.startswith("us_") or suffix in ("self_us", "self_us_per_step"):
        return "us"
    return {
        "calls_per_step": "count",
        "calls": "count",
        "ns_per_call": "ns",
        "ms": "ms",
        "s": "s",
        "self_s": "s",
        "bytes": "bytes",
    }[suffix]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every job (self-test)")
    args = ap.parse_args()

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    root = Path.cwd()
    if not (root / "src" / "jumpga" / "cli.py").is_file():
        log(f"error: no jumpga source under {root / 'src'}; run from the root of a checkout")
        return 2
    env = child_env(root)
    out = root / ".bench_out" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    before = environment()
    log(f"jumpga benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    try:
        run = traced_run if args.trace else timed_run
        metrics, attempted, failures = run(args, env, out, log)
    except (RuntimeError, subprocess.SubprocessError, OSError, ValueError, KeyError) as e:
        log(f"error: {type(e).__name__}: {e}")
        return 2
    finally:
        shutil.rmtree(out, ignore_errors=True)
    after = os.getloadavg()
    log("  env: python {python}, numpy {numpy}, nproc {nproc}, cpu {cpu!r}".format(**before))
    log(f"  loadavg before {before['loadavg']} after {after}")
    for name, value in metrics.items():
        log(f"  {name:<48} {value:>16.6g} {unit_of(name)}")
    for line in failures:
        log(f"  FAILED {line}")
    failed = len({line.split(":")[0] for line in failures})
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
