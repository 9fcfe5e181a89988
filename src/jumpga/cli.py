"""Command-line interface: every experiment is scriptable without touching Python.

Resolution order for every setting: built-in defaults, then the config file
(section ``[common]``, then the subcommand's section), then the
``JUMPGA_OUTPUT_DIR`` environment variable (output directory only), then
command-line flags.  Each invocation writes the effective configuration to
``<out>/config.resolved`` before any data file, and reruns with identical
configuration and seed produce byte-identical outputs.

Exit codes: 0 success, 1 runtime failure, 2 usage error, 3 bound-sweep cell
failure.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
import traceback
from pathlib import Path

from .analysis import (
    close_crossover_decrease_bound,
    close_crossover_increase_bound,
    close_crossover_increase_oscale,
    exact_optimum_probability,
    mutation_only_increase_oscale,
    mutation_only_transition_bounds,
    optimum_creation_lower_bound,
    runtime_bound,
    survival_constant,
)
from .core import GaParams, Genotype, make_rng
from .experiments import (
    ExperimentConfig,
    run_bound_sweep,
    run_comparison,
    run_figure1,
    run_survival,
    run_takeover,
    sample_optimum_creation_frequency,
    sweep_grid_ys,
)
from .ga import StopCondition, init_uniform, run
from .output import format_value, render_svg, write_json, write_series_csv

ENV_OUTPUT_DIR = "JUMPGA_OUTPUT_DIR"


class UsageError(Exception):
    pass


_COMMON_DEFAULTS = {
    "out": "out",
    "seed": 1,
    "n": 100,
    "k": 3,
    "mu": 20,
    "pc": 0.5,
    "chi": 1.0,
}

_SUB_DEFAULTS = {
    "run": {"replicates": 1, "max_iterations": 1_000_000, "stop": "optimum"},
    "takeover": {"replicates": 50, "max_iterations": None},
    "survival": {"replicates": 30, "lam": 0.75, "t_max": 100_000, "max_iterations": None},
    "figure1": {"replicates": 10, "stride": None, "max_iterations": 10_000_000, "svg": True},
    "compare": {"replicates": 20, "max_iterations": None},
    "bounds": {"mus": "4,8,16", "format": "text", "grid": "default"},
    "sweep": {"trials": 100_000, "mus": "4,8,16"},
    "oracle": {"d": 1, "mc_trials": 0},
}

_KEY_TYPES = {
    "out": str,
    "seed": int,
    "n": int,
    "k": int,
    "mu": int,
    "pc": float,
    "chi": float,
    "replicates": int,
    "max_iterations": int,
    "stop": str,
    "lam": float,
    "t_max": int,
    "stride": int,
    "svg": bool,
    "trials": int,
    "mus": str,
    "format": str,
    "grid": str,
    "d": int,
    "mc_trials": int,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jumpga",
        description="Steady-state (mu+1) GA laboratory on jump fitness functions",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp):
        sp.add_argument("--config", help="config file (ini-style key=value sections)")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--seed", type=int, help="base seed for all random streams")
        sp.add_argument("--n", type=int, help="bit-string dimension")
        sp.add_argument("--k", type=int, help="jump width")
        sp.add_argument("--mu", type=int, help="population size")
        sp.add_argument("--pc", type=float, help="crossover probability")
        sp.add_argument("--chi", type=float, help="mutation strength (per-bit rate chi/n)")

    sp = subs.add_parser("run", help="plain GA runs to a stop condition")
    add_common(sp)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--max-iterations", type=int, dest="max_iterations")
    sp.add_argument("--stop", choices=("optimum", "plateau"))

    sp = subs.add_parser("takeover", help="time until the largest species falls to mu/2")
    add_common(sp)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--max-iterations", type=int, dest="max_iterations")

    sp = subs.add_parser("survival", help="species-regrowth monitoring after takeover")
    add_common(sp)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--lam", type=float, help="regrowth threshold fraction of mu")
    sp.add_argument("--t-max", type=int, dest="t_max", help="monitoring horizon")
    sp.add_argument("--max-iterations", type=int, dest="max_iterations")

    sp = subs.add_parser("figure1", help="pairwise-distance frequency series until the optimum")
    add_common(sp)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--stride", type=int, help="snapshot stride (default by mu)")
    sp.add_argument("--max-iterations", type=int, dest="max_iterations")
    sp.add_argument("--svg", action=argparse.BooleanOptionalAction)

    sp = subs.add_parser("compare", help="crossover arm vs mutation-only arm")
    add_common(sp)
    sp.add_argument("--replicates", type=int)
    sp.add_argument("--max-iterations", type=int, dest="max_iterations")

    sp = subs.add_parser("bounds", help="tabulate every closed-form bound over a grid")
    add_common(sp)
    sp.add_argument("--mus", help="comma-separated population sizes")
    sp.add_argument("--format", choices=("text", "csv"))
    sp.add_argument(
        "--grid",
        choices=("default", "wide"),
        help="named population-size grid: 'default' uses --mus, 'wide' uses 4..64",
    )

    sp = subs.add_parser("sweep", help="Monte Carlo bound checks over a (mu, y, event) grid")
    add_common(sp)
    sp.add_argument("--trials", type=int, help="accepted-trial target per cell")
    sp.add_argument("--mus", help="comma-separated population sizes")

    sp = subs.add_parser("oracle", help="exact vs closed-form optimum-creation probability")
    add_common(sp)
    sp.add_argument("--d", type=int, help="half the parent Hamming distance")
    sp.add_argument("--mc-trials", type=int, dest="mc_trials", help="optional Monte Carlo check")

    return parser


def _coerce(key: str, raw: str):
    typ = _KEY_TYPES[key]
    try:
        if typ is bool:
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        return typ(raw)
    except ValueError:
        raise UsageError(f"config value for '{key}' is not a valid {typ.__name__}: {raw!r}") from None


def _read_config_file(path: str, subcommand: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise UsageError(f"config file not found: {path}")
    allowed = set(_COMMON_DEFAULTS) | set(_SUB_DEFAULTS[subcommand])
    out: dict = {}
    for section in ("common", subcommand):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            if key not in allowed:
                raise UsageError(f"unknown config key '{key}' in section [{section}]")
            out[key] = _coerce(key, raw)
    for section in parser.sections():
        if section != "common" and section not in _SUB_DEFAULTS:
            raise UsageError(f"unknown config section [{section}]")
    return out


def resolve_config(args: argparse.Namespace) -> dict:
    sub = args.subcommand
    cfg = dict(_COMMON_DEFAULTS)
    cfg.update(_SUB_DEFAULTS[sub])
    if args.config:
        cfg.update(_read_config_file(args.config, sub))
    env_out = os.environ.get(ENV_OUTPUT_DIR)
    if env_out:
        cfg["out"] = env_out
    for key in cfg:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            cfg[key] = flag_value
    cfg["subcommand"] = sub
    return cfg


def _params_from(cfg: dict) -> GaParams:
    """GaParams of a resolved configuration, after checking every setting's domain.

    Every out-of-domain value is a UsageError here, so that a ValueError raised
    later, during the experiment, is a runtime failure and not a usage error.
    """
    for key in ("replicates", "trials", "t_max", "stride"):
        if cfg.get(key) is not None and cfg[key] < 1:
            raise UsageError(f"{key} must be positive, got {cfg[key]}")
    for key in ("max_iterations", "mc_trials"):
        if cfg.get(key) is not None and cfg[key] < 0:
            raise UsageError(f"{key} must be non-negative, got {cfg[key]}")
    if "lam" in cfg and not 0.5 < cfg["lam"] < 1.0:
        raise UsageError(f"lam must lie in (1/2, 1), got {cfg['lam']}")
    if "mus" in cfg and cfg.get("grid") != "wide":
        small = [mu for mu in _parse_mus(cfg["mus"]) if mu < 4]
        if small:
            raise UsageError(f"population-size list needs every mu >= 4, got {small[0]}")
    try:
        return GaParams(
            n=cfg["n"], k=cfg["k"], mu=cfg["mu"], p_c=cfg["pc"], chi=cfg["chi"], seed=cfg["seed"]
        )
    except ValueError as e:
        raise UsageError(str(e)) from None


def _parse_mus(raw) -> tuple[int, ...]:
    if isinstance(raw, tuple):
        return raw
    try:
        mus = tuple(int(part) for part in str(raw).split(",") if part.strip())
    except ValueError:
        raise UsageError(f"invalid population-size list: {raw!r}") from None
    if not mus:
        raise UsageError("population-size list is empty")
    return mus


def write_resolved_config(cfg: dict, out_dir: Path) -> None:
    lines = [f"{key} = {format_value(cfg[key])}" for key in sorted(cfg)]
    with open(out_dir / "config.resolved", "w", newline="") as f:
        f.write("\n".join(lines))
        f.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_run(cfg: dict, out: Path) -> int:
    params = _params_from(cfg)
    stop = StopCondition(
        optimum=True,
        full_plateau=cfg["stop"] == "plateau",
        max_iterations=cfg["max_iterations"],
    )
    rows = []
    for r in range(cfg["replicates"]):
        rng = make_rng(params.seed, stream=r)
        pop = init_uniform(params, rng)
        res = run(pop, params, stop, rng)
        rows.append((r, params.seed, res.iterations, res.evaluations, res.stop_reason))
    write_series_csv(rows, out / "runs.csv", ("replicate", "seed", "iterations", "evaluations", "stop_reason"))
    return 0


def _cmd_takeover(cfg: dict, out: Path) -> int:
    params = _params_from(cfg)
    config = ExperimentConfig(
        params, replicates=cfg["replicates"], max_iterations=cfg["max_iterations"]
    )
    summary = run_takeover(config)
    rows = [
        (rr.replicate, params.seed, rr.hitting_time, rr.censored) for rr in summary.replicates
    ]
    write_series_csv(rows, out / "takeover.csv", ("replicate", "seed", "hitting_time", "censored"))
    write_json(
        {
            "mean_hitting_time": summary.mean_hitting_time,
            "median_hitting_time": summary.median_hitting_time,
            "reference_mu_n_plus_mu2_log_mu": summary.reference,
            "mean_to_reference_ratio": summary.mean_to_reference_ratio,
            "censored": summary.censored,
            "cap": summary.cap,
            "replicates": len(summary.replicates),
        },
        out / "takeover_summary.json",
    )
    return 0


def _cmd_survival(cfg: dict, out: Path) -> int:
    params = _params_from(cfg)
    config = ExperimentConfig(
        params,
        replicates=cfg["replicates"],
        max_iterations=cfg["max_iterations"],
        lam=cfg["lam"],
        t_max=cfg["t_max"],
    )
    summary = run_survival(config)
    rows = [
        (
            rr.replicate,
            params.seed,
            rr.takeover_time,
            rr.takeover_censored,
            rr.monitored,
            rr.focal_hit_time,
            rr.max_hit_time,
            rr.optimum_interrupted,
        )
        for rr in summary.replicates
    ]
    write_series_csv(
        rows,
        out / "survival.csv",
        (
            "replicate",
            "seed",
            "takeover_time",
            "takeover_censored",
            "monitored_iterations",
            "focal_hit_time",
            "max_hit_time",
            "optimum_interrupted",
        ),
    )
    write_json(
        {
            "threshold": summary.threshold,
            "monitored_replicates": summary.monitored_replicates,
            "focal_excursions": summary.focal_excursions,
            "max_excursions": summary.max_excursions,
            "focal_excursion_frequency": summary.focal_excursion_frequency,
            "max_excursion_frequency": summary.max_excursion_frequency,
            "analytic_tail": summary.analytic_tail,
            "tail_is_vacuous": summary.tail_is_vacuous,
            "t_max": summary.t_max,
        },
        out / "survival_summary.json",
    )
    return 0


def _cmd_figure1(cfg: dict, out: Path) -> int:
    params = _params_from(cfg)
    config = ExperimentConfig(
        params,
        replicates=cfg["replicates"],
        max_iterations=cfg["max_iterations"],
        snapshot_stride=cfg["stride"],
    )
    runs = run_figure1(config)
    header = ("iteration",) + tuple(f"d{d}" for d in runs[0].distances)
    for dr in runs:
        rows = [(t,) + freqs for t, freqs in dr.rows]
        write_series_csv(rows, out / f"figure1_seed{dr.replicate}.csv", header)
        if cfg["svg"]:
            render_svg(
                dr.rows,
                out / f"figure1_seed{dr.replicate}.svg",
                dr.distances,
                title=f"pairwise distance frequencies (stream {dr.replicate})",
            )
    write_json(
        {
            "runs": [
                {
                    "replicate": dr.replicate,
                    "iterations": dr.iterations,
                    "found_optimum": dr.found_optimum,
                }
                for dr in runs
            ]
        },
        out / "figure1_summary.json",
    )
    return 0


def _cmd_compare(cfg: dict, out: Path) -> int:
    params = _params_from(cfg)
    config = ExperimentConfig(
        params, replicates=cfg["replicates"], max_iterations=cfg["max_iterations"]
    )
    summary = run_comparison(config)
    for arm in summary.arms:
        rows = [
            (rec.replicate, params.seed, rec.iterations, rec.evaluations, rec.stop_reason)
            for rec in arm.records
        ]
        write_series_csv(
            rows,
            out / f"compare_{arm.label}.csv",
            ("replicate", "seed", "iterations", "evaluations", "stop_reason"),
        )
    write_json(
        {
            "arms": {
                arm.label: {
                    "p_c": arm.p_c,
                    "mean_evaluations": arm.mean_evaluations,
                    "median_evaluations": arm.median_evaluations,
                    "censored": arm.censored,
                }
                for arm in summary.arms
            },
            "evaluation_ratio_mutation_only_to_crossover": summary.evaluation_ratio,
            "cap": summary.cap,
        },
        out / "compare_summary.json",
    )
    return 0


def _cmd_bounds(cfg: dict, out: Path) -> int:
    params = _params_from(cfg)
    mus = (4, 8, 16, 32, 64) if cfg["grid"] == "wide" else _parse_mus(cfg["mus"])
    header = (
        "mu",
        "y",
        "n",
        "k",
        "chi",
        "p_c",
        "close_increase_leading",
        "close_increase_oscale",
        "close_decrease_lower",
        "mutation_leading",
        "mutation_oscale",
        "survival_constant_3_4",
        "runtime_bound",
    )
    rows = []
    n, k, chi, pc = params.n, params.k, params.chi, params.p_c
    c34 = survival_constant(0.75, chi, pc) if pc > 0 else None
    for mu in mus:
        rb = runtime_bound(n, k, mu, chi, pc) if (k >= 3 and pc > 0) else None
        for y in sweep_grid_ys(mu):
            mut_lead, _ = mutation_only_transition_bounds(y, mu, chi, n)
            rows.append(
                (
                    mu,
                    y,
                    n,
                    k,
                    chi,
                    pc,
                    close_crossover_increase_bound(y, mu, chi, n),
                    close_crossover_increase_oscale(y, mu, n),
                    close_crossover_decrease_bound(y, mu, chi, n),
                    mut_lead,
                    mutation_only_increase_oscale(y, mu, n),
                    c34,
                    rb,
                )
            )
    write_series_csv(rows, out / "bounds.csv", header)
    if cfg["format"] == "text":
        widths = [max(len(h), 14) for h in header]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(format_value(v).ljust(w) for v, w in zip(row, widths)))
    return 0


def _cmd_sweep(cfg: dict, out: Path) -> int:
    params = _params_from(cfg)
    config = ExperimentConfig(params, trials=cfg["trials"], mus=_parse_mus(cfg["mus"]))
    result = run_bound_sweep(config)
    rows = []
    for cell in result.cells:
        est = cell.estimate
        satisfied = "inconclusive" if cell.satisfied is None else format_value(cell.satisfied)
        rows.append(
            (
                est.event.value,
                est.y,
                est.trials,
                est.p_plus_hat,
                est.p_minus_hat,
                est.stderr_plus,
                est.stderr_minus,
                cell.primary_bound,
                satisfied,
            )
        )
    write_series_csv(
        rows,
        out / "transitions.csv",
        (
            "event",
            "y",
            "trials",
            "p_plus",
            "p_minus",
            "stderr_plus",
            "stderr_minus",
            "bound",
            "satisfied",
        ),
    )
    write_json(
        {
            "cells": [
                {
                    "mu": cell.mu,
                    "y": cell.y,
                    "event": cell.event.value,
                    "descriptor": cell.estimate.config_descriptor,
                    "accepted_trials": cell.estimate.trials,
                    "attempts": cell.estimate.attempts,
                    "satisfied": cell.satisfied,
                    "checks": [
                        {
                            "name": ch.name,
                            "analytic_value": ch.analytic_value,
                            "estimate": ch.estimate,
                            "stderr": ch.stderr,
                            "satisfied": ch.satisfied,
                        }
                        for ch in cell.checks
                    ],
                }
                for cell in result.cells
            ],
            "failures": len(result.failures),
            "inconclusive": len(result.inconclusive),
        },
        out / "sweep_summary.json",
    )
    if result.failures:
        print(f"{len(result.failures)} bound cell(s) failed", file=sys.stderr)
        return 3
    return 0


def _cmd_oracle(cfg: dict, out: Path) -> int:
    params = _params_from(cfg)
    n, k, d = params.n, params.k, cfg["d"]
    if not 0 <= d <= k:
        raise UsageError(f"d must lie in [0, k], got {d}")
    if params.p_m >= 1.0:
        raise UsageError(f"the oracle needs chi < n, got chi={params.chi}, n={n}")
    # canonical plateau pair at Hamming distance 2d: zero blocks 0..k-1 and d..k+d-1
    full = (1 << n) - 1
    a = Genotype(full ^ ((1 << k) - 1), n)
    b = Genotype(full ^ (((1 << k) - 1) << d), n)
    exact = exact_optimum_probability(a, b, params.p_m)
    bound = optimum_creation_lower_bound(n, k, d, params.p_m)
    payload = {
        "n": n,
        "k": k,
        "d": d,
        "p_m": params.p_m,
        "exact_probability": exact,
        "closed_form_lower_bound": bound,
    }
    if cfg["mc_trials"]:
        mc = sample_optimum_creation_frequency(
            a, b, params.p_m, cfg["mc_trials"], make_rng(params.seed, stream=0)
        )
        payload["mc_frequency"] = mc.frequency
        payload["mc_stderr"] = mc.stderr
        payload["mc_trials"] = mc.trials
    write_json(payload, out / "oracle.json")
    print(
        f"exact={format_value(exact)} bound={format_value(bound)}"
        + (f" mc={format_value(payload['mc_frequency'])}" if cfg["mc_trials"] else "")
    )
    return 0


_HANDLERS = {
    "run": _cmd_run,
    "takeover": _cmd_takeover,
    "survival": _cmd_survival,
    "figure1": _cmd_figure1,
    "compare": _cmd_compare,
    "bounds": _cmd_bounds,
    "sweep": _cmd_sweep,
    "oracle": _cmd_oracle,
}


def parse_cli(argv=None) -> dict:
    """Parse argv and resolve the effective configuration (no side effects)."""
    args = build_parser().parse_args(argv)
    return resolve_config(args)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
        if cfg["k"] > cfg["n"] / 4:
            print(
                f"warning: k={cfg['k']} exceeds n/4={cfg['n'] / 4:g}; "
                "gap-crossing probabilities shrink rapidly in k",
                file=sys.stderr,
            )
        out = Path(cfg["out"])
        out.mkdir(parents=True, exist_ok=True)
        write_resolved_config(cfg, out)
        return _HANDLERS[cfg["subcommand"]](cfg, out)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        traceback.print_exc()
        print(f"failure: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
