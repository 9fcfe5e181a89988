"""Serialization helpers and the command-line interface: formats, precedence,
exit codes, and byte-level determinism of emitted artifacts."""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys

import pytest

import jumpga.cli as cli
import jumpga.core as core
from jumpga import (
    BoundReport,
    ConditionedEstimate,
    EventClass,
    SweepCell,
    SweepResult,
    exact_optimum_probability,
    optimum_creation_lower_bound,
)
from jumpga.cli import ENV_OUTPUT_DIR, main, parse_cli, write_resolved_config
from jumpga.output import format_value, render_svg, write_json, write_series_csv


# ---------------------------------------------------------------------------
# value formatting and CSV/JSON/SVG writers


def test_format_value_conventions():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(None) == ""
    assert format_value(42) == "42"
    assert format_value("plain") == "plain"
    assert format_value(1.0) == "1"
    assert format_value(0.1234567891234) == "0.123456789"
    assert format_value(2.5e-05) == "2.5e-05"


def test_format_value_round_trips_at_nine_significant_digits():
    for x in (1 / 3, 0.99**100, 2.75 / (512 * math.e), 1234567.891, 5e-12):
        s = format_value(x)
        assert format_value(float(s)) == s


def test_write_series_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_series_csv([], path, ("a", "b"))
    assert path.read_bytes() == b"a,b\n"
    write_series_csv([(1, 0.5), (2, None)], path, ("a", "b"))
    data = path.read_bytes()
    assert data == b"a,b\n1,0.5\n2,\n"
    assert b"\r" not in data


def test_write_series_csv_is_byte_deterministic(tmp_path):
    rows = [(i, i / 7, i % 2 == 0) for i in range(50)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_series_csv(rows, p1, ("i", "x", "even"))
    write_series_csv(rows, p2, ("i", "x", "even"))
    assert p1.read_bytes() == p2.read_bytes()


def test_write_series_csv_never_merges_equal_values_that_format_apart(tmp_path):
    # 1 == True == 1.0 and 0.0 == -0.0, yet each formats differently.
    rows = [
        (1, True, 1.0, 0.0, -0.0, None),
        (1.0, 1, True, -0.0, 0.0, 1),
        (True, 1.0, 1, None, -0.0, 0.0),
        (-0.0, 0.0, None, 1.0, True, 1),
    ]
    path = tmp_path / "mixed.csv"
    write_series_csv(iter(rows), path, tuple("abcdef"))
    cells = "".join(",".join(format_value(v) for v in row) + "\n" for row in rows)
    assert path.read_bytes() == ("a,b,c,d,e,f\n" + cells).encode()


def test_write_json_sorted_and_deterministic(tmp_path):
    payload = {"zeta": 1, "alpha": [1, 2], "mid": {"b": 2, "a": 1}}
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_json(payload, p1)
    write_json(payload, p2)
    raw = p1.read_bytes()
    assert raw == p2.read_bytes()
    assert raw.endswith(b"\n")
    assert raw.index(b"alpha") < raw.index(b"mid") < raw.index(b"zeta")
    assert json.loads(raw) == payload


def test_render_svg_deterministic_with_one_line_per_distance(tmp_path):
    rows = [(t, (1.0 - t / 100, t / 200, t / 200)) for t in range(0, 101, 10)]
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(rows, p1, (0, 2, 4), title="demo")
    render_svg(rows, p2, (0, 2, 4), title="demo")
    raw = p1.read_text()
    assert p1.read_bytes() == p2.read_bytes()
    assert raw.startswith("<svg")
    assert raw.count("<polyline") == 3
    with pytest.raises(ValueError):
        render_svg([], tmp_path / "c.svg", (0, 2))


# ---------------------------------------------------------------------------
# configuration resolution


def test_defaults_resolve_without_flags():
    cfg = parse_cli(["run"])
    assert cfg["subcommand"] == "run"
    assert cfg["out"] == "out"
    assert cfg["seed"] == 1
    assert cfg["n"] == 100
    assert cfg["k"] == 3
    assert cfg["mu"] == 20
    assert cfg["pc"] == 0.5
    assert cfg["chi"] == 1.0
    assert cfg["replicates"] == 1
    assert cfg["stop"] == "optimum"


def test_config_file_overrides_defaults_and_flags_override_file(tmp_path):
    ini = tmp_path / "exp.ini"
    ini.write_text("[common]\nmu = 6\nseed = 9\n\n[run]\nreplicates = 2\n")
    cfg = parse_cli(["run", "--config", str(ini)])
    assert cfg["mu"] == 6
    assert cfg["seed"] == 9
    assert cfg["replicates"] == 2
    cfg = parse_cli(["run", "--config", str(ini), "--mu", "8"])
    assert cfg["mu"] == 8
    assert cfg["seed"] == 9


# sha256 of config.resolved for `<sub> --out o`, and for a [common] section,
# a [survival] section and two flags combined.
_RESOLVED_PINS = {
    "run": "dbd9ef1f97b752dd70cff8f90dacaae7c36c9cf07415a51634d890796a63ec8e",
    "takeover": "e988ce718b1d24d7bade146b4e769e5b12de7a9eaa7a6f2698171d8636a989bb",
    "survival": "a0846b420cfc35378e65ce3a40a2947a0200ac597983293ef9109f0991925988",
    "figure1": "1235877a5d7b39eb4eb7f2c8c943031e0082a51940cf9e48e3cc2ea3ce5af157",
    "compare": "f42a6a3bbbfb1cf1d018b24a612a08697e74a84900c9c1cb0e0d088b108156a9",
    "bounds": "e792d48c5bc032dafef20782c29015c862a76a7cf82569f8e66aa6839ebf2d82",
    "sweep": "84e51b47494f8bd88fc944d8d44cd25b81400c15fcb1a2a3cd060affc242607c",
    "oracle": "f36ec6ce8304d1e4a845f07f61454e8b69bbaedc86d3803159bcb940341b3ab4",
    "combined": "373e1a3a22301f4562c1b4aeedd7826cc26164fd8f23cfd6a9e63961dad1b639",
}


def _resolved_digest(cfg, tmp_path):
    write_resolved_config(cfg, tmp_path)
    return hashlib.sha256((tmp_path / "config.resolved").read_bytes()).hexdigest()


@pytest.mark.parametrize("sub", [s for s in _RESOLVED_PINS if s != "combined"])
def test_resolved_config_of_each_subcommand_is_pinned(tmp_path, monkeypatch, sub):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    assert _resolved_digest(parse_cli([sub, "--out", "o"]), tmp_path) == _RESOLVED_PINS[sub]


def test_resolved_config_of_file_sections_and_flags_is_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    ini = tmp_path / "c.ini"
    ini.write_text(
        "[common]\nmu = 6\nseed = 9\npc = 0.25\n\n"
        "[survival]\nreplicates = 4\nlam = 0.8\nt_max = 300\n"
    )
    cfg = parse_cli(
        ["survival", "--config", str(ini), "--out", "o", "--t-max", "700", "--chi", "1.5"]
    )
    assert (cfg["mu"], cfg["lam"], cfg["t_max"], cfg["chi"]) == (6, 0.8, 700, 1.5)
    assert _resolved_digest(cfg, tmp_path) == _RESOLVED_PINS["combined"]


def test_environment_sets_output_dir_and_flags_beat_it(tmp_path, monkeypatch):
    monkeypatch.setenv(ENV_OUTPUT_DIR, str(tmp_path / "envdir"))
    cfg = parse_cli(["run"])
    assert cfg["out"] == str(tmp_path / "envdir")
    cfg = parse_cli(["run", "--out", str(tmp_path / "flagdir")])
    assert cfg["out"] == str(tmp_path / "flagdir")


def test_unknown_config_keys_and_sections_are_usage_errors(tmp_path):
    bad_key = tmp_path / "k.ini"
    bad_key.write_text("[common]\nbogus = 1\n")
    assert main(["run", "--config", str(bad_key)]) == 2
    bad_section = tmp_path / "s.ini"
    bad_section.write_text("[nosuch]\nmu = 4\n")
    assert main(["run", "--config", str(bad_section)]) == 2
    bad_value = tmp_path / "v.ini"
    bad_value.write_text("[common]\nmu = plenty\n")
    assert main(["run", "--config", str(bad_value)]) == 2
    assert main(["run", "--config", str(tmp_path / "missing.ini")]) == 2


def test_every_config_section_is_judged_whichever_subcommand_reads_it(tmp_path, monkeypatch):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "bad.ini"
    bad.write_text("[sweep]\nbogus = 1\ntrials = abc\n")
    # Read before the output directory is made, so nothing is written.
    assert main(["run", "--config", str(bad), "--out", "o"]) == 2
    assert not (tmp_path / "o").exists()
    good = tmp_path / "good.ini"
    good.write_text("[sweep]\ntrials = 7\nmus = 4,8\n")
    assert parse_cli(["run", "--config", str(good)]) == parse_cli(["run"])


def test_argparse_failures_exit_2_and_help_exits_0(capsys):
    assert main([]) == 2
    assert main(["nosuchcommand"]) == 2
    assert main(["run", "--bogus"]) == 2
    assert main(["--help"]) == 0
    capsys.readouterr()


_CLI_SUBCOMMANDS = (
    "run", "takeover", "survival", "figure1", "compare", "bounds", "sweep", "oracle"
)


def test_help_lists_every_subcommand(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for sub in _CLI_SUBCOMMANDS:
        assert f"    {sub} " in out


@pytest.mark.parametrize("sub", _CLI_SUBCOMMANDS)
def test_subcommand_help_lists_its_options(sub, capsys):
    assert main([sub, "--help"]) == 0
    out = capsys.readouterr().out
    for key in ("config", *cli._defaults(sub)):
        assert re.search(f"--{key.replace('_', '-')}[ ,]", out), key


def test_invalid_parameter_combinations_exit_2(tmp_path):
    out = str(tmp_path / "o")
    assert main(["run", "--out", out, "--n", "10", "--k", "6", "--mu", "4"]) == 2
    assert main(["oracle", "--out", out, "--d", "9"]) == 2
    assert main(["survival", "--out", out, "--lam", "0.5", "--replicates", "1"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--replicates", "0"],
        ["takeover", "--max-iterations", "-1"],
        ["survival", "--t-max", "0"],
        ["figure1", "--stride", "-2"],
        ["sweep", "--trials", "0"],
        ["sweep", "--mus", "3,8"],
        ["bounds", "--mus", "2"],
        ["oracle", "--mc-trials", "-5"],
        ["oracle", "--n", "12", "--k", "2", "--chi", "12"],
        ["figure1", "--stride", "0"],
        ["sweep", "--k", "1"],
        ["survival", "--pc", "0"],
        ["oracle", "--d", "-1"],
        ["bounds", "--mus", "3"],
        ["compare", "--max-iterations", "-3"],
        ["run", "--config", "replicates_0.ini"],
        ["compare", "--replicates", "0"],
    ],
)
def test_out_of_domain_settings_exit_2_before_the_experiment(tmp_path, monkeypatch, argv):
    # Each setting is judged by the code that uses it, before its first draw:
    # no random stream is made, and config.resolved is the only file written.
    def no_stream(*args, **kw):
        raise AssertionError("a random stream was made before the settings were checked")

    monkeypatch.setattr(core, "RandomStream", no_stream)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "replicates_0.ini").write_text("[run]\nreplicates = 0\n")
    assert main(argv + ["--out", "o"]) == 2
    assert [f.name for f in (tmp_path / "o").iterdir()] == ["config.resolved"]


@pytest.mark.parametrize(
    "sub, key, value", [("run", "stop", "sometimes"), ("bounds", "format", "xml")]
)
def test_config_file_value_outside_the_choices_exits_2(tmp_path, capsys, sub, key, value):
    ini = tmp_path / "c.ini"
    ini.write_text(f"[{sub}]\n{key} = {value}\n")
    assert main([sub, "--config", str(ini), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and key in err
    # The file is checked as it is read, as for a wrong type, even where a flag
    # would override the value.
    valid = cli._defaults(sub)[key]
    argv = [sub, "--config", str(ini), "--out", str(tmp_path / "o"), f"--{key}", valid]
    assert main(argv) == 2
    capsys.readouterr()


def test_config_file_value_a_flag_overrides_is_never_judged(tmp_path):
    # Only the effective value reaches the check of the code that uses it.
    ini = tmp_path / "c.ini"
    ini.write_text("[run]\nreplicates = 0\n")
    argv = ["run", "--config", str(ini), "--out", str(tmp_path / "o"), "--n", "12", "--k", "2",
            "--mu", "4", "--replicates", "1"]
    assert main(argv) == 0
    assert len(read_lines(tmp_path / "o" / "runs.csv")) == 2


def _other_value(default, typ, domain):
    """A value of the setting's type and domain that differs from its default."""
    if isinstance(domain, tuple):
        return next(choice for choice in domain if choice != default)
    if typ is bool:
        return not default
    if typ is str:
        return f"{default}5,6"
    return typ((default or 1) * 2)


@pytest.mark.parametrize(
    "sub, key",
    [(sub, key) for sub in cli._SECTIONS if sub != "common" for key in cli._defaults(sub)],
)
def test_every_setting_resolves_alike_from_flag_and_config_file(tmp_path, monkeypatch, sub, key):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    typ, _, domain = cli._OPTIONS[key]
    default = cli._defaults(sub)[key]
    value = _other_value(default, typ, domain)
    flag = "--" + ("" if value is not False else "no-") + key.replace("_", "-")
    by_flag = parse_cli([sub, flag] if typ is bool else [sub, flag, str(value)])
    ini = tmp_path / "c.ini"
    ini.write_text(f"[{sub}]\n{key} = {value}\n")
    by_file = parse_cli([sub, "--config", str(ini)])
    assert by_flag[key] == value and type(by_flag[key]) is typ
    assert by_file == by_flag


def test_max_iterations_zero_caps_takeover_at_zero_steps(tmp_path):
    out = tmp_path / "t"
    argv = ["takeover", "--out", str(out), "--n", "20", "--k", "2", "--mu", "6",
            "--replicates", "3", "--max-iterations", "0"]
    assert main(argv) == 0
    summary = json.loads((out / "takeover_summary.json").read_text())
    assert (summary["cap"], summary["censored"], summary["replicates"]) == (0, 3, 3)


def test_value_error_raised_mid_run_is_a_runtime_failure(tmp_path, monkeypatch, capsys):
    def broken(params, cfg, out):
        raise ValueError("bug inside the experiment")

    monkeypatch.setitem(cli._HANDLERS, "run", broken)
    assert main(["run", "--out", str(tmp_path / "r")]) == 1
    assert "failure: ValueError: bug inside the experiment" in capsys.readouterr().err


def test_runtime_failure_prints_the_traceback_before_the_failure_line(tmp_path, monkeypatch, capsys):
    def handler_that_raises(params, cfg, out):
        raise ValueError("bug inside the experiment")

    monkeypatch.setitem(cli._HANDLERS, "run", handler_that_raises)
    assert main(["run", "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "Traceback (most recent call last)" in err
    assert "handler_that_raises" in err
    assert err.splitlines()[-1] == "failure: ValueError: bug inside the experiment"


def test_usage_error_prints_one_line_and_no_traceback(tmp_path, capsys):
    assert main(["run", "--replicates", "0", "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_wide_jump_width_warns_on_stderr(tmp_path, capsys):
    rc = main(
        ["run", "--out", str(tmp_path / "w"), "--n", "12", "--k", "4", "--mu", "4",
         "--max-iterations", "50", "--seed", "3"]
    )
    assert rc == 0
    assert "exceeds n/4" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# subcommand artifacts


def read_lines(path):
    return path.read_text().splitlines()


def test_run_subcommand_writes_resolved_config_and_runs_csv(tmp_path):
    out = tmp_path / "runout"
    rc = main(
        ["run", "--out", str(out), "--n", "12", "--k", "2", "--mu", "4",
         "--replicates", "3", "--seed", "5"]
    )
    assert rc == 0
    resolved = read_lines(out / "config.resolved")
    assert resolved == sorted(resolved)
    entries = dict(line.split(" = ", 1) for line in resolved)
    assert entries["subcommand"] == "run"
    assert entries["seed"] == "5"
    assert entries["n"] == "12"
    lines = read_lines(out / "runs.csv")
    assert lines[0] == "replicate,seed,iterations,evaluations,stop_reason"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        rep, seed, iters, evals, reason = line.split(",")
        assert int(rep) == i
        assert int(seed) == 5
        assert int(evals) == 4 + int(iters)
        assert reason == "optimum_found"


def test_resolved_config_written_even_when_the_experiment_fails(tmp_path):
    out = tmp_path / "failout"
    rc = main(["survival", "--out", str(out), "--lam", "0.5", "--replicates", "1",
               "--n", "20", "--mu", "4", "--t-max", "50"])
    assert rc == 2
    assert (out / "config.resolved").exists()
    assert not (out / "survival.csv").exists()


def test_rerun_with_identical_config_is_byte_identical(tmp_path):
    args = ["figure1", "--n", "16", "--k", "2", "--mu", "6", "--replicates", "2",
            "--seed", "11", "--stride", "6"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    assert "figure1_seed0.csv" in names and "figure1_seed0.svg" in names
    for name in names:
        if name == "config.resolved":
            continue  # embeds the output path itself
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_figure1_rows_are_stochastic_vectors(tmp_path):
    out = tmp_path / "fig"
    assert main(["figure1", "--out", str(out), "--n", "16", "--k", "2", "--mu", "6",
                 "--replicates", "1", "--seed", "11", "--stride", "6", "--no-svg"]) == 0
    assert not (out / "figure1_seed0.svg").exists()
    lines = read_lines(out / "figure1_seed0.csv")
    assert lines[0] == "iteration,d0,d2,d4"
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0
    for line in lines[1:]:
        cells = [float(v) for v in line.split(",")[1:]]
        assert sum(cells) == pytest.approx(1.0, abs=1e-9)
    summary = json.loads((out / "figure1_summary.json").read_text())
    assert [r["replicate"] for r in summary["runs"]] == [0]


def test_oracle_subcommand_reports_exact_bound_and_mc(tmp_path, capsys):
    out = tmp_path / "oracle"
    rc = main(["oracle", "--out", str(out), "--n", "12", "--k", "2", "--d", "1",
               "--chi", "1.2", "--mc-trials", "20000", "--seed", "3"])
    assert rc == 0
    payload = json.loads((out / "oracle.json").read_text())
    pm = 1.2 / 12
    assert payload["p_m"] == pytest.approx(pm, rel=1e-12)
    assert payload["exact_probability"] > payload["closed_form_lower_bound"] > 0
    se = payload["mc_stderr"]
    assert payload["mc_trials"] == 20000
    assert abs(payload["mc_frequency"] - payload["exact_probability"]) <= 4 * max(se, 1e-9)
    assert "exact=" in capsys.readouterr().out


def test_oracle_values_match_library_calls(tmp_path):
    out = tmp_path / "oracle2"
    assert main(["oracle", "--out", str(out), "--n", "14", "--k", "3", "--d", "2"]) == 0
    payload = json.loads((out / "oracle.json").read_text())
    from jumpga import Genotype

    full = (1 << 14) - 1
    a = Genotype(full ^ 0b111, 14)
    b = Genotype(full ^ (0b111 << 2), 14)
    assert payload["exact_probability"] == exact_optimum_probability(a, b, 1 / 14)
    assert payload["closed_form_lower_bound"] == optimum_creation_lower_bound(14, 3, 2, 1 / 14)


def test_bounds_subcommand_text_and_csv(tmp_path, capsys):
    out = tmp_path / "bounds"
    assert main(["bounds", "--out", str(out), "--mus", "4,8", "--n", "50"]) == 0
    table = capsys.readouterr().out
    assert "close_decrease_lower" in table
    assert (out / "bounds.csv").exists()
    out2 = tmp_path / "bounds2"
    assert main(["bounds", "--out", str(out2), "--format", "csv", "--mus", "4,8,16,32,64",
                 "--n", "50"]) == 0
    lines = read_lines(out2 / "bounds.csv")
    mus = sorted({int(line.split(",")[0]) for line in lines[1:]})
    assert mus == [4, 8, 16, 32, 64]
    # n^(k-1) = 1000^109 leaves the double range at these valid settings.
    out3 = tmp_path / "bounds3"
    assert main(["bounds", "--out", str(out3), "--format", "csv", "--n", "1000", "--k", "110"]) == 0
    lines = read_lines(out3 / "bounds.csv")
    assert lines[0].endswith(",runtime_bound")
    assert len(lines) > 1
    assert all(line.endswith(",inf") for line in lines[1:])


def test_takeover_survival_compare_artifacts(tmp_path):
    out = tmp_path / "tk"
    assert main(["takeover", "--out", str(out), "--n", "30", "--mu", "6",
                 "--replicates", "3", "--seed", "2"]) == 0
    lines = read_lines(out / "takeover.csv")
    assert lines[0] == "replicate,seed,hitting_time,censored"
    assert len(lines) == 4
    summary = json.loads((out / "takeover_summary.json").read_text())
    assert summary["censored"] == 0

    out = tmp_path / "sv"
    assert main(["survival", "--out", str(out), "--n", "30", "--mu", "4",
                 "--replicates", "2", "--t-max", "500", "--seed", "2"]) == 0
    assert (out / "survival.csv").exists()
    assert (out / "survival_summary.json").exists()

    out = tmp_path / "cmp"
    assert main(["compare", "--out", str(out), "--n", "20", "--k", "2", "--mu", "4",
                 "--replicates", "3", "--seed", "2"]) == 0
    assert (out / "compare_crossover.csv").exists()
    assert (out / "compare_mutation_only.csv").exists()
    summary = json.loads((out / "compare_summary.json").read_text())
    assert set(summary["arms"]) == {"crossover", "mutation_only"}
    assert summary["arms"]["mutation_only"]["p_c"] == 0.0


def test_sweep_subcommand_writes_transitions_and_exits_0_on_success(tmp_path):
    out = tmp_path / "sw"
    rc = main(["sweep", "--out", str(out), "--n", "60", "--trials", "2000",
               "--mus", "4", "--seed", "4"])
    assert rc == 0
    lines = read_lines(out / "transitions.csv")
    assert lines[0] == "event,y,trials,p_plus,p_minus,stderr_plus,stderr_minus,bound,satisfied"
    assert len(lines) == 8  # 7 grid cells
    assert all(line.endswith(",true") for line in lines[1:])
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert summary["failures"] == 0


def test_sweep_subcommand_exits_3_when_a_bound_check_fails(tmp_path, monkeypatch):
    est = ConditionedEstimate(
        event=EventClass.CROSSOVER_CLOSE,
        y=2,
        p_plus_hat=0.5,
        p_minus_hat=0.01,
        stderr_plus=0.001,
        stderr_minus=0.001,
        trials=1000,
        attempts=1200,
        inconclusive=False,
    )
    report = BoundReport("synthetic-check", 0.2, 0.01, 0.001, 1000, False)
    cell = SweepCell(4, 2, 1, EventClass.CROSSOVER_CLOSE, est, "synthetic", (report,))
    monkeypatch.setattr(cli, "run_bound_sweep", lambda params, mus, trials: SweepResult((cell,)))
    rc = main(["sweep", "--out", str(tmp_path / "fail"), "--n", "60"])
    assert rc == 3
    lines = read_lines(tmp_path / "fail" / "transitions.csv")
    assert lines[1].endswith(",false")


def test_console_script_entry_point(tmp_path):
    # The child imports the package this process imported, installed or not.
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    proc = subprocess.run(
        [sys.executable, "-m", "jumpga.cli", "oracle", "--out", str(tmp_path / "cli"),
         "--n", "12", "--k", "2", "--d", "0"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert proc.returncode == 0
    assert "exact=" in proc.stdout
