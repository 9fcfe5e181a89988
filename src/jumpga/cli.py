"""Command-line interface: every experiment is scriptable without touching Python.

Resolution order for every setting: built-in defaults, then the config file
(section ``[common]``, then the subcommand's section), then the
``JUMPGA_OUTPUT_DIR`` environment variable (output directory only), then
command-line flags.  Each invocation writes the effective configuration to
``<out>/config.resolved`` before any data file, and reruns with identical
configuration and seed produce byte-identical outputs.

Exit codes: 0 success, 1 runtime failure, 2 usage error (a SettingError:
a parse error here, or a setting its user judged out of domain before the
first draw), 3 bound-sweep cell failure.
"""

from __future__ import annotations

import argparse
import configparser
import os
import sys
import traceback
from pathlib import Path

from .analysis import (
    close_crossover_decrease_bound,
    close_crossover_increase_bound,
    exact_optimum_probability,
    mutation_only_increase_oscale,
    mutation_only_transition_bounds,
    optimum_creation_lower_bound,
    runtime_bound,
    survival_constant,
)
from .core import GaParams, Genotype, SettingError
from .experiments import (
    run_bound_sweep,
    run_comparison,
    run_figure1,
    run_replicates,
    run_survival,
    run_takeover,
    sample_optimum_creation_frequency,
    sweep_grid_ys,
)
from .ga import StopCondition
from .output import format_value, render_svg, write_json, write_series_csv

ENV_OUTPUT_DIR = "JUMPGA_OUTPUT_DIR"


# Every setting once: key -> (type, help, choices).  The flag is ``--`` plus
# the key with ``_`` as ``-``; the config-file key is the key itself.  Only
# the type and the choices (a tuple, or None) are judged here, as the value is
# read.  Every other domain is judged once, by the code that uses the value,
# before its first draw: GaParams, StopCondition, a runner or a bound.  That
# check raises SettingError, which ``main`` turns into exit 2.
_OPTIONS = {
    "out": (str, "output directory", None),
    "seed": (int, "base seed for all random streams", None),
    "n": (int, "bit-string dimension", None),
    "k": (int, "jump width", None),
    "mu": (int, "population size", None),
    "pc": (float, "crossover probability", None),
    "chi": (float, "mutation strength (per-bit rate chi/n)", None),
    "replicates": (int, "independent replicates; replicate r uses random stream r", None),
    "max_iterations": (int, "iteration cap (survival: on the takeover); None: scaled to the run", None),
    "stop": (str, "stop at the optimum, or also once all members are on the plateau",
             ("optimum", "plateau")),
    "lam": (float, "regrowth threshold as a fraction of mu, in (1/2, 1)", None),
    "t_max": (int, "monitoring horizon in iterations", None),
    "stride": (int, "snapshot stride in iterations; None means 1 up to mu = 64, else 10", None),
    "svg": (bool, "also draw each distance series as SVG", None),
    "trials": (int, "accepted-trial target per cell", None),
    "mus": (str, "comma-separated population sizes, each at least 4", None),
    "format": (str, "'text' also prints the table, 'csv' only writes bounds.csv",
               ("text", "csv")),
    "d": (int, "half the parent Hamming distance, in [0, k]", None),
    "mc_trials": (int, "Monte Carlo trials for an optional cross-check (0: none)", None),
}

# Config-file section -> (subcommand help, defaults of the section's settings);
# [common] holds the settings every subcommand takes.
_SECTIONS = {
    "common": (None, {"out": "out", "seed": 1, "n": 100, "k": 3, "mu": 20, "pc": 0.5, "chi": 1.0}),
    "run": ("plain GA runs to a stop condition",
            {"replicates": 1, "max_iterations": 1_000_000, "stop": "optimum"}),
    "takeover": ("time until the largest species falls to mu/2",
                 {"replicates": 50, "max_iterations": None}),
    "survival": ("species-regrowth monitoring after takeover",
                 {"replicates": 30, "lam": 0.75, "t_max": 100_000, "max_iterations": None}),
    "figure1": ("pairwise-distance frequency series until the optimum",
                {"replicates": 10, "stride": None, "max_iterations": 10_000_000, "svg": True}),
    "compare": ("crossover arm vs mutation-only arm",
                {"replicates": 20, "max_iterations": None}),
    "bounds": ("tabulate every closed-form bound over a grid",
               {"mus": "4,8,16", "format": "text"}),
    "sweep": ("Monte Carlo bound checks over a (mu, y, event) grid",
              {"trials": 100_000, "mus": "4,8,16"}),
    "oracle": ("exact vs closed-form optimum-creation probability",
               {"d": 1, "mc_trials": 0}),
}


def _defaults(subcommand: str) -> dict:
    return {**_SECTIONS["common"][1], **_SECTIONS[subcommand][1]}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser for ``argv`` (default ``sys.argv[1:]``): every subcommand with its help
    line, and the options of the subcommand ``argv`` names, or of all when it names none."""
    first = (sys.argv[1:] if argv is None else argv)[:1]
    only = first[0] if first and first[0] in _HANDLERS else None
    parser = argparse.ArgumentParser(
        prog="jumpga",
        description="Steady-state (mu+1) GA laboratory on jump fitness functions",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for sub, (sub_help, _) in _SECTIONS.items():
        if sub_help is None:
            continue
        sp = subs.add_parser(sub, help=sub_help, description=sub_help)
        if only not in (None, sub):
            continue
        sp.add_argument("--config", help="config file (ini-style key=value sections)")
        for key, default in _defaults(sub).items():
            typ, help_text, choices = _OPTIONS[key]
            kwargs = {"dest": key, "help": f"{help_text} (default: {default})"}
            if typ is bool:
                kwargs["action"] = argparse.BooleanOptionalAction
            else:
                kwargs.update(type=typ, choices=choices)
            sp.add_argument("--" + key.replace("_", "-"), **kwargs)
    return parser


def _coerce(key: str, raw: str):
    """A config-file value as its setting's type, checked against its choices."""
    typ, _, choices = _OPTIONS[key]
    try:
        value = configparser.ConfigParser.BOOLEAN_STATES[raw.lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        raise SettingError(f"config value for '{key}' is not a valid {typ.__name__}: {raw!r}") from None
    if choices is not None and value not in choices:
        raise SettingError(f"{key} must be one of {', '.join(choices)}, got {value!r}")
    return value


def _read_config_file(path: str, subcommand: str) -> dict:
    """The file's settings for ``subcommand``: ``[common]``, then its own section.
    Every section is judged, so a file is valid or not whichever subcommand reads it."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise SettingError(f"config file not found: {path}")
    sections: dict = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise SettingError(f"unknown config section [{section}]")
        allowed = _defaults(section)
        values = sections[section] = {}
        for key, raw in parser.items(section):
            if key not in allowed:
                raise SettingError(f"unknown config key '{key}' in section [{section}]")
            values[key] = _coerce(key, raw)
    return {**sections.get("common", {}), **sections.get(subcommand, {})}


def resolve_config(args: argparse.Namespace) -> dict:
    sub = args.subcommand
    cfg = _defaults(sub)
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


def _parse_mus(raw: str) -> tuple[int, ...]:
    try:
        mus = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise SettingError(f"invalid population-size list: {raw!r}") from None
    if not mus:
        raise SettingError("population-size list is empty")
    return mus


def write_resolved_config(cfg: dict, out_dir: Path) -> None:
    lines = [f"{key} = {format_value(cfg[key])}" for key in sorted(cfg)]
    with open(out_dir / "config.resolved", "w", newline="") as f:
        f.write("\n".join(lines))
        f.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _write_rows(rows: list[dict], path: Path) -> tuple[str, ...]:
    """One CSV row per dict, its values in order; returns the header, the first
    dict's keys, so that each column is named where its value is computed."""
    header = tuple(rows[0])
    write_series_csv([tuple(row.values()) for row in rows], path, header)
    return header


def _fields_except(record, *skip: str) -> dict:
    """A result record's fields as a JSON object, without ``skip``."""
    return {key: value for key, value in vars(record).items() if key not in skip}


def _write_replicates(records, seed: int, path: Path) -> None:
    """One CSV row per replicate record: its fields in order, the base seed
    second, so every record type declares its columns once, as its fields."""
    rows = [{"replicate": rec.replicate, "seed": seed, **_fields_except(rec, "replicate")} for rec in records]
    _write_rows(rows, path)


def _cmd_run(params: GaParams, cfg: dict, out: Path) -> int:
    stop = StopCondition(full_plateau=cfg["stop"] == "plateau", max_iterations=cfg["max_iterations"])
    records = run_replicates(params, cfg["replicates"], stop)
    _write_replicates(records, params.seed, out / "runs.csv")
    return 0


def _cmd_takeover(params: GaParams, cfg: dict, out: Path) -> int:
    summary = run_takeover(params, cfg["replicates"], max_iterations=cfg["max_iterations"])
    _write_replicates(summary.replicates, params.seed, out / "takeover.csv")
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


def _cmd_survival(params: GaParams, cfg: dict, out: Path) -> int:
    summary = run_survival(
        params,
        cfg["replicates"],
        lam=cfg["lam"],
        t_max=cfg["t_max"],
        max_iterations=cfg["max_iterations"],
    )
    _write_replicates(summary.replicates, params.seed, out / "survival.csv")
    write_json(_fields_except(summary, "replicates"), out / "survival_summary.json")
    return 0


def _cmd_figure1(params: GaParams, cfg: dict, out: Path) -> int:
    runs = run_figure1(
        params, cfg["replicates"], stride=cfg["stride"], max_iterations=cfg["max_iterations"]
    )
    header = ("iteration",) + tuple(f"d{d}" for d in runs[0].distances)
    for dr in runs:
        rows = ((t,) + freqs for t, freqs in dr.rows)
        write_series_csv(rows, out / f"figure1_seed{dr.replicate}.csv", header)
        if cfg["svg"]:
            render_svg(
                dr.rows,
                out / f"figure1_seed{dr.replicate}.svg",
                dr.distances,
                title=f"pairwise distance frequencies (stream {dr.replicate})",
            )
    write_json(
        {"runs": [_fields_except(dr, "distances", "rows") for dr in runs]},
        out / "figure1_summary.json",
    )
    return 0


def _cmd_compare(params: GaParams, cfg: dict, out: Path) -> int:
    summary = run_comparison(params, cfg["replicates"], max_iterations=cfg["max_iterations"])
    for arm in summary.arms:
        _write_replicates(arm.records, params.seed, out / f"compare_{arm.label}.csv")
    write_json(
        {
            "arms": {arm.label: _fields_except(arm, "label", "records") for arm in summary.arms},
            "evaluation_ratio_mutation_only_to_crossover": summary.evaluation_ratio,
            "cap": summary.cap,
        },
        out / "compare_summary.json",
    )
    return 0


def _cmd_bounds(params: GaParams, cfg: dict, out: Path) -> int:
    rows = []
    n, k, chi, pc = params.n, params.k, params.chi, params.p_c
    c34 = survival_constant(0.75, chi, pc) if pc > 0 else None
    for mu in _parse_mus(cfg["mus"]):
        ys = sweep_grid_ys(mu)  # the check of mu, so before runtime_bound
        rb = runtime_bound(n, k, mu, chi, pc) if (k >= 3 and pc > 0) else None
        for y in ys:
            mut_lead, _ = mutation_only_transition_bounds(y, mu, chi, n)
            oscale = mutation_only_increase_oscale(y, mu, n)  # both increase terms neglect this scale
            rows.append(
                {
                    "mu": mu,
                    "y": y,
                    "n": n,
                    "k": k,
                    "chi": chi,
                    "p_c": pc,
                    "close_increase_leading": close_crossover_increase_bound(y, mu, chi, n),
                    "close_increase_oscale": oscale,
                    "close_decrease_lower": close_crossover_decrease_bound(y, mu, chi, n),
                    "mutation_leading": mut_lead,
                    "mutation_oscale": oscale,
                    "survival_constant_3_4": c34,
                    "runtime_bound": rb,
                }
            )
    header = _write_rows(rows, out / "bounds.csv")
    if cfg["format"] == "text":
        widths = [max(len(h), 14) for h in header]
        print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        for row in rows:
            print("  ".join(format_value(v).ljust(w) for v, w in zip(row.values(), widths)))
    return 0


def _cmd_sweep(params: GaParams, cfg: dict, out: Path) -> int:
    result = run_bound_sweep(params, _parse_mus(cfg["mus"]), trials=cfg["trials"])
    rows = []
    for cell in result.cells:
        est = cell.estimate
        rows.append(
            {
                "event": est.event.value,
                "y": est.y,
                "trials": est.trials,
                "p_plus": est.p_plus_hat,
                "p_minus": est.p_minus_hat,
                "stderr_plus": est.stderr_plus,
                "stderr_minus": est.stderr_minus,
                "bound": cell.primary_bound,
                "satisfied": "inconclusive" if cell.satisfied is None else format_value(cell.satisfied),
            }
        )
    _write_rows(rows, out / "transitions.csv")
    write_json(
        {
            "cells": [
                {
                    "mu": cell.mu,
                    "y": cell.y,
                    "event": cell.event.value,
                    "descriptor": cell.descriptor,
                    "accepted_trials": cell.estimate.trials,
                    "attempts": cell.estimate.attempts,
                    "satisfied": cell.satisfied,
                    "checks": [_fields_except(ch, "samples") for ch in cell.checks],
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


def _cmd_oracle(params: GaParams, cfg: dict, out: Path) -> int:
    n, k, d = params.n, params.k, cfg["d"]
    # first: the bound judges d and p_m before the pair is built from them
    bound = optimum_creation_lower_bound(n, k, d, params.p_m)
    # canonical plateau pair at Hamming distance 2d: zero blocks 0..k-1 and d..k+d-1
    full = (1 << n) - 1
    a = Genotype(full ^ ((1 << k) - 1), n)
    b = Genotype(full ^ (((1 << k) - 1) << d), n)
    exact = exact_optimum_probability(a, b, params.p_m)
    payload = {
        "n": n,
        "k": k,
        "d": d,
        "p_m": params.p_m,
        "exact_probability": exact,
        "closed_form_lower_bound": bound,
    }
    if cfg["mc_trials"]:
        mc = sample_optimum_creation_frequency(a, b, params.p_m, cfg["mc_trials"], params.seed)
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
    return resolve_config(build_parser(argv).parse_args(argv))


def main(argv=None) -> int:
    try:
        args = build_parser(argv).parse_args(argv)
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
        params = GaParams(
            n=cfg["n"], k=cfg["k"], mu=cfg["mu"], p_c=cfg["pc"], chi=cfg["chi"], seed=cfg["seed"]
        )
        return _HANDLERS[cfg["subcommand"]](params, cfg, out)
    except SettingError as e:
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
