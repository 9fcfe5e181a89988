"""The four benchmark workloads: CLI argv templates, job seeds and artifact readers.

A workload is an endless, seed-determined list of ``jumpga`` CLI invocations
("jobs") that differ only in ``--seed`` and ``--out``.  Job ``j`` of workload
``w`` under benchmark seed ``s`` passes the CLI seed ``job_seed(w, s, j)``, so
the benchmark seed fixes every input and the program sees nothing but argv.

Each reader returns the number of ``ga_step`` calls the job made, taken from
its artifacts (the count is deterministic), plus a list of consistency errors.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# "job_s" is a job's nominal wall time, which sizes traced runs and the
# golden pin.  "nominal_steps" is the mean ga_step count of a job over the
# first jobs at the default seed, rounded; wall_s is reported for a job of
# that many steps.
WORKLOADS = {
    # The paper's headline quantity and the only workload through ga.run:
    # uniform start to the optimum, no tracker, small mu so core dominates.
    "optimize_small_mu": {
        "argv": "run --n 40 --k 3 --mu 12 --pc 0.5 --replicates 3",
        "tiny": {"--replicates": "1"},
        "job_s": 0.25,
        "nominal_steps": 23_000,
    },
    # Rejection estimators and the analysis bounds: single read-only steps
    # from fixed witness populations, each new Population discarded.  Exit
    # code 3 is the sweep's verdict that a bound cell missed its Monte Carlo
    # estimate; the job still ran to the end and wrote every artifact.  Some
    # cells sit near their band's edge at any trial count (mutation-only
    # increase at mu=16, y=15), so a share of jobs ends with that verdict.
    "estimate_one_step": {
        "argv": "sweep --n 100 --k 3 --chi 1 --mus 4,8,16 --trials 1000",
        "tiny": {"--trials": "200"},
        "job_s": 0.55,
        "nominal_steps": 46_000,
        "exit_codes": (0, 3),
    },
    # Chained plateau steps at mu = 128: tie-break every step, SpeciesTracker
    # applied every step.  t_max bounds the monitored phase so the step count
    # per job varies little between seeds.
    "survive_large_mu": {
        "argv": "survival --n 200 --k 3 --mu 128 --pc 0.5 --lam 0.75 --replicates 2 --t-max 5000",
        "tiny": {"--replicates": "1", "--t-max": "500"},
        "job_s": 0.6,
        "nominal_steps": 28_000,
    },
    # The only workload with PairwiseDistanceTracker, a CSV row per step
    # (default stride 1 at mu <= 64) and an SVG per replicate.  The
    # iteration cap stops about 85 % of replicates before the optimum, so
    # the steps per job, the rows held in memory and the bytes written
    # hardly vary between seeds.
    "distance_series": {
        "argv": "figure1 --n 100 --k 4 --mu 32 --pc 1.0 --replicates 3 --max-iterations 4000",
        "tiny": {"--replicates": "1", "--max-iterations": "300"},
        "job_s": 0.5,
        "nominal_steps": 11_700,
    },
}

DEFAULT_SEED = 1


def template(workload: str, tiny: bool) -> list[str]:
    argv = WORKLOADS[workload]["argv"].split()
    if tiny:
        for flag, value in WORKLOADS[workload]["tiny"].items():
            argv[argv.index(flag) + 1] = value
    return argv


def completed(workload: str, rc: int) -> bool:
    """Whether exit code ``rc`` means the job ran to the end and wrote its artifacts."""
    return rc in WORKLOADS[workload].get("exit_codes", (0,))


def job_seed(workload: str, seed: int, index: int) -> int:
    """63-bit CLI seed of job ``index``; a pure function of its arguments."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def job_argv(workload: str, seed: int, index: int, out: Path, tiny: bool) -> list[str]:
    return template(workload, tiny) + [
        "--seed",
        str(job_seed(workload, seed, index)),
        "--out",
        str(out),
    ]


def trace_jobs(workload: str, seconds: float) -> int:
    """Fixed job count of a traced run, so its counts repeat exactly per seed.

    Sized so that the untraced and the traced pass together take about
    ``seconds`` at twice the nominal job time.
    """
    return max(1, round(seconds / (4 * WORKLOADS[workload]["job_s"])))


def digests(out: Path) -> dict[str, str]:
    """sha256 of every artifact except config.resolved, which records the path."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "config.resolved"
    }


def _options(argv: list[str]) -> dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _read_run(out: Path, opt: dict) -> tuple[int, list[str]]:
    errors = []
    rows = _rows(out / "runs.csv")
    if len(rows) != int(opt["--replicates"]):
        errors.append(f"runs.csv has {len(rows)} rows")
    steps = 0
    for row in rows:
        iterations = int(row["iterations"])
        steps += iterations
        if int(row["evaluations"]) != iterations + int(opt["--mu"]):
            errors.append(f"replicate {row['replicate']}: evaluations != mu + iterations")
        if row["stop_reason"] != "optimum_found":
            errors.append(f"replicate {row['replicate']}: stopped by {row['stop_reason']}")
    return steps, errors


def _read_sweep(out: Path, opt: dict) -> tuple[int, list[str]]:
    errors = []
    summary = json.loads((out / "sweep_summary.json").read_text())
    cells = summary["cells"]
    if len(_rows(out / "transitions.csv")) != len(cells):
        errors.append("transitions.csv and sweep_summary.json disagree on cell count")
    trials = int(opt["--trials"])
    for cell in cells:
        if cell["accepted_trials"] != trials or cell["attempts"] < trials:
            errors.append(f"cell {cell['descriptor']}: {cell['accepted_trials']} accepted")
    if summary["inconclusive"]:
        errors.append(f"{summary['inconclusive']} inconclusive cells")
    return sum(cell["attempts"] for cell in cells), errors


def _read_survival(out: Path, opt: dict) -> tuple[int, list[str]]:
    errors = []
    rows = _rows(out / "survival.csv")
    summary = json.loads((out / "survival_summary.json").read_text())
    if len(rows) != int(opt["--replicates"]):
        errors.append(f"survival.csv has {len(rows)} rows")
    if summary["threshold"] != math.ceil(float(opt["--lam"]) * int(opt["--mu"]) - 1e-9):
        errors.append(f"threshold {summary['threshold']}")
    t_max = int(opt["--t-max"])
    steps = 0
    for row in rows:
        if row["takeover_censored"] != "false":
            errors.append(f"replicate {row['replicate']}: takeover censored")
            continue
        monitored = int(row["monitored_iterations"])
        steps += int(row["takeover_time"]) + monitored
        if monitored > t_max or (row["focal_hit_time"] and int(row["focal_hit_time"]) != monitored):
            errors.append(f"replicate {row['replicate']}: monitored {monitored}")
    return steps, errors


def _read_figure1(out: Path, opt: dict) -> tuple[int, list[str]]:
    errors = []
    runs = json.loads((out / "figure1_summary.json").read_text())["runs"]
    if len(runs) != int(opt["--replicates"]):
        errors.append(f"figure1_summary.json lists {len(runs)} runs")
    for run in runs:
        name = f"figure1_seed{run['replicate']}"
        rows = _rows(out / f"{name}.csv")
        # Stride 1 at mu <= 64: row 0, then one row per step before the optimum.
        expected = 1 + run["iterations"] - run["found_optimum"]
        if len(rows) != expected:
            errors.append(f"{name}.csv has {len(rows)} rows, expected {expected}")
        for row in rows:
            if abs(sum(float(v) for k, v in row.items() if k != "iteration") - 1.0) > 1e-6:
                errors.append(f"{name}.csv row {row['iteration']}: frequencies do not sum to 1")
                break
        if not (out / f"{name}.svg").is_file():
            errors.append(f"{name}.svg missing")
    return sum(run["iterations"] for run in runs), errors


_READERS = {
    "run": _read_run,
    "sweep": _read_sweep,
    "survival": _read_survival,
    "figure1": _read_figure1,
}


def read_artifacts(argv: list[str], out: Path) -> tuple[int, list[str]]:
    """(ga_step calls, consistency errors) of a finished job."""
    try:
        return _READERS[argv[0]](out, _options(argv))
    except (OSError, KeyError, ValueError) as e:
        return 0, [f"unreadable artifacts: {type(e).__name__}: {e}"]
