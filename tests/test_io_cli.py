"""Serialization helpers and the command-line interface: formats, precedence,
exit codes, and byte-level determinism of emitted artifacts."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import pytest
from reference import series_rows

import jumpga.cli as cli
import jumpga.core as core
from jumpga import (
    BoundReport,
    ConditionedEstimate,
    EventClass,
    GaParams,
    SweepCell,
    exact_optimum_probability,
    optimum_creation_lower_bound,
    run_figure1,
)
from jumpga.cli import ENV_OUTPUT_DIR, main, parse_cli, write_resolved_config
from jumpga.output import TextCache, format_value, render_svg, write_json, write_series_csv


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
    # 1 == True == 1.0 and 0.0 == -0.0, yet each formats differently, also
    # across two files written with one cache, in either order.
    rows = [
        (1, True, 1.0, 0.0, -0.0, None),
        (1.0, 1, True, -0.0, 0.0, 1),
        (True, 1.0, 1, None, -0.0, 0.0),
        (-0.0, 0.0, None, 1.0, True, 1),
    ]
    cache = TextCache()
    for name, table in (("mixed.csv", rows), ("reversed.csv", [row[::-1] for row in rows[::-1]])):
        path = tmp_path / name
        write_series_csv(iter(table), path, tuple("abcdef"), cache=cache)
        cells = "".join(",".join(format_value(v) for v in row) + "\n" for row in table)
        assert path.read_bytes() == ("a,b,c,d,e,f\n" + cells).encode()


def csv_reference(rows, header) -> bytes:
    """The table as csv.writer writes the cells' format_value text, each tuple
    cell spread over one column per item."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([format_value(x) for v in row for x in (v if type(v) is tuple else (v,))])
    return buf.getvalue().encode()


def test_write_series_csv_tuple_cells_match_flattened_rows(tmp_path):
    p = GaParams(n=40, k=3, mu=10, p_c=1.0, chi=1.0, seed=3)
    (dr,) = run_figure1(p, replicates=1, max_iterations=500)
    header = ("iteration",) + tuple(f"d{d}" for d in dr.distances)
    path = tmp_path / "series.csv"
    write_series_csv(series_rows(dr), path, header)
    flat = [(t,) + f for t, f in series_rows(dr)]
    assert path.read_bytes() == csv_reference(flat, header)
    shared = (0.25, None, True, "a,b", -0.0)
    rows = [(1, shared, "x"), (2, shared, None), (3, (0.25, 0.0), shared), (4, (), 5)]
    write_series_csv(rows, path, tuple("abcdefghi"))
    assert path.read_bytes() == csv_reference(rows, tuple("abcdefghi"))


def test_write_series_csv_reuses_tuple_text_by_identity_not_equality(tmp_path):
    first, second = (1.0, 0.0), (True, -0.0)
    assert first == second
    path = tmp_path / "equal.csv"
    write_series_csv([(1, first), (2, second)], path, ("t", "a", "b"))
    assert path.read_bytes() == b"t,a,b\n1,1,0\n2,true,-0\n"


def test_write_series_csv_range_rows_stand_for_one_line_per_item(tmp_path):
    # Two tables written with one cache: the second repeats times of the
    # first, starts past them, and mixes in stepped, offset, empty and
    # negative ranges.
    shared = (0.5, None, "a,b", 0.0)
    tables = [
        [
            (range(0, 3), shared),
            (range(3, 3), (9.0,)),  # an empty range writes no line
            (range(3, 12, 4), (), 1.5),
            (range(12, 13), ""),
            (range(13, 15),),
            (15, shared),
        ],
        [
            (range(1, 14), (-0.0, 0.5)),
            (range(40, 43), shared),
            (range(14, 21), 2.5),
            (range(30, 30), (1.0,)),
            (range(2, 12, 3), 0.0),
            (range(-2, 2), ()),
            (range(9, 1, -3), True),
            (range(21, 25),),
        ],
    ]
    cache = TextCache()
    for i, rows in enumerate(tables):
        flat = [(t, *row[1:]) for row in rows if type(row[0]) is range for t in row[0]]
        flat += [row for row in rows if type(row[0]) is not range]
        path = tmp_path / f"runs{i}.csv"
        write_series_csv(rows, path, tuple("abcdef"), cache=cache)
        assert path.read_bytes() == csv_reference(flat, tuple("abcdef"))


def test_write_series_csv_keeps_no_text_per_row_in_its_cache(tmp_path):
    # A long stretch through a cache that outlives the write: the cache holds
    # the stretch's frequency texts, not one text per row time, so a figure1
    # job's cache does not grow with its rows.
    rows = [(range(200_000), (0.25, 0.75))]
    path = tmp_path / "long.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cache = TextCache()
        write_series_csv(rows, path, ("t", "a", "b"), cache=cache)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 2**20
    assert cache.floats == {0.25: "0.25", 0.75: "0.75"}
    assert path.read_bytes().count(b"\n") == 1 + 200_000


def test_render_svg_draws_each_stretch_as_its_points(tmp_path):
    # A stretch is its points: the figure1 series drawn from its stretches
    # equals the same series drawn one point per stretch.
    p = GaParams(n=40, k=3, mu=10, p_c=1.0, chi=1.0, seed=3)
    (dr,) = run_figure1(p, replicates=1, stride=3, max_iterations=500)
    assert any(len(times) > 1 for times, _ in dr.runs)
    points = [(range(t, t + 1), freqs) for t, freqs in series_rows(dr)]
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    render_svg(dr.runs, a, dr.distances, title="t")
    render_svg(points, b, dr.distances, title="t")
    assert a.read_bytes() == b.read_bytes()
    # Series of one x span drawn with one cache: stretches with gaps, then
    # stretches that tile the span, the gaps again, and times from below 0,
    # each as if alone.
    cache = TextCache()
    gaps = [(range(0, 2), (1.0,)), (range(7, 9), (0.5,)), (range(40, 41), (0.0,))]
    tiles = [(range(0, 30), (0.25,)), (range(30, 41), (0.5,))]
    for rows in (gaps, tiles, gaps, [(range(-3, 2), (0.5,)), *tiles[1:]]):
        render_svg(rows, a, (0,), cache=cache)
        render_svg(rows, b, (0,))
        assert a.read_bytes() == b.read_bytes()
    render_svg([(range(5, 5), (1.0,)), (range(0, 1), (0.5,))], a, (0,))
    assert a.read_text().count("<circle") == 1
    with pytest.raises(ValueError):
        render_svg([(range(2, 2), (1.0,))], a, (0,))


def test_write_series_csv_quotes_text_as_csv_writer_does(tmp_path):
    header = ("plain", "with,comma")
    rows = [
        ("a,b", 'say "hi"'),
        ("cr\rhere", "lf\nhere"),
        ("", None),
        ('"', ",,"),
        (("one", "tw,o"), "three"),
    ]
    path = tmp_path / "quoted.csv"
    write_series_csv(rows, path, header)
    assert path.read_bytes() == csv_reference(rows, header)
    # A row of one empty field is quoted, so it differs from an empty row.
    for rows in [("",)], [(None,)], [((None,),)], [("",), (1,), ((),), ("",)]:
        write_series_csv(rows, path, ("",))
        assert path.read_bytes() == csv_reference(rows, ("",))


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
    rows = [(range(t, t + 1), (1.0 - t / 100, t / 200, t / 200)) for t in range(0, 101, 10)]
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


def test_unknown_config_keys_and_sections_are_usage_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(ENV_OUTPUT_DIR, raising=False)
    monkeypatch.chdir(tmp_path)
    files = {
        "k.ini": "[common]\nbogus = 1\n",
        "s.ini": "[nosuch]\nmu = 4\n",
        "v.ini": "[common]\nmu = plenty\n",
        # Malformed files: configparser's own errors are usage errors too.
        "no_header.ini": "n = 5\n",
        "twice_key.ini": "[common]\nn = 40\nn = 50\n",
        "twice_section.ini": "[common]\nn = 40\n[common]\nmu = 4\n",
        "no_equals.ini": "[common]\nn = 40\nbogus\n",
        "interpolation.ini": "[common]\nout = runs%1\n",
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for name in (*files, "missing.ini"):
        assert main(["run", "--config", name, "--out", "o"]) == 2, name
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not (tmp_path / "o").exists()


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


def test_repeated_main_calls_reuse_one_parser(tmp_path, monkeypatch, capsys):
    argv = ["bounds", "--out", str(tmp_path / "o"), "--mus", "4", "--n", "20", "--format", "csv"]
    assert main(argv) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert main(argv) == 0
    assert built == []
    assert cli.build_parser(argv) is cli.build_parser(["bounds"])
    assert cli.build_parser(["run"]) is not cli.build_parser(["bounds"])
    capsys.readouterr()


def test_a_reused_parser_still_exits_0_on_help_and_2_on_a_usage_error(capsys):
    for _ in range(2):
        assert main(["run", "--help"]) == 0
        assert main(["run", "--bogus"]) == 2
        assert main(["run", "--mu", "x"]) == 2
        assert main(["--help"]) == 0
        assert main([]) == 2
        assert parse_cli(["run", "--mu", "8"])["mu"] == 8
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
        ["takeover", "--replicates", "0"],
        ["survival", "--replicates", "0"],
        ["figure1", "--replicates", "0"],
        ["sweep", "--mus", "4,x"],
        ["bounds", "--mus", ","],
    ],
)
def test_out_of_domain_settings_exit_2_before_the_experiment(tmp_path, monkeypatch, capsys, argv):
    # Each setting is judged by the code that uses it, before its first draw:
    # no random stream is made, config.resolved is the only file written, and
    # the reason is one line on stderr.
    def no_stream(*args, **kw):
        raise AssertionError("a random stream was made before the settings were checked")

    monkeypatch.setattr(core, "RandomStream", no_stream)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "replicates_0.ini").write_text("[run]\nreplicates = 0\n")
    assert main(argv + ["--out", "o"]) == 2
    assert [f.name for f in (tmp_path / "o").iterdir()] == ["config.resolved"]
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if "--chi" in argv:  # p_m has no option of its own: the line names what it comes from
        assert err == "error: p_m = chi/n must lie in (0, 1), got 1.0\n"
    if "--mc-trials" in argv:  # the oracle judges its own trial count, 0 included
        assert err == "error: mc_trials must be non-negative, got -5\n"


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

    monkeypatch.setitem(cli._SECTIONS, "run", cli._SECTIONS["run"][:2] + (broken,))
    assert main(["run", "--out", str(tmp_path / "r")]) == 1
    assert "failure: ValueError: bug inside the experiment" in capsys.readouterr().err


def test_runtime_failure_prints_the_traceback_before_the_failure_line(tmp_path, monkeypatch, capsys):
    def handler_that_raises(params, cfg, out):
        raise ValueError("bug inside the experiment")

    monkeypatch.setitem(cli._SECTIONS, "run", cli._SECTIONS["run"][:2] + (handler_that_raises,))
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


def test_figure1_with_no_step_writes_one_row_and_a_point_per_distance(tmp_path):
    # A one-row series has no line to draw: each distance becomes a circle.
    args = ["figure1", "--n", "20", "--k", "2", "--mu", "6", "--max-iterations", "0"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    csvs = sorted(out_a.glob("figure1_seed*.csv"))
    assert len(csvs) == 10  # the default replicate count
    for path in csvs:
        assert read_lines(path) == ["iteration,d0,d2,d4", "0,1,0,0"]
        svg = path.with_suffix(".svg").read_text()
        assert (svg.count("<circle"), svg.count("<polyline")) == (3, 0)
    names = sorted(p.name for p in out_a.iterdir() if p.name != "config.resolved")
    assert names == sorted(p.name for p in out_b.iterdir() if p.name != "config.resolved")
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("seed", [2, 6])
def test_figure1_job_writes_each_series_as_it_is_written_alone(tmp_path, monkeypatch, seed, stride):
    # Two replicates are censored at the cap of 150, so they share their row
    # times and x span, and one finds the optimum (last at seed 2, first at
    # seed 6).  The job's one cache must not change a byte of any series.
    caches = []
    for name in ("write_series_csv", "render_svg"):

        def spy(*args, cache, writer=getattr(cli, name), **kwargs):
            caches.append(cache)
            writer(*args, cache=cache, **kwargs)

        monkeypatch.setattr(cli, name, spy)
    args = ["--n", "16", "--k", "2", "--mu", "6", "--pc", "1.0", "--seed", str(seed),
            "--replicates", "3", "--max-iterations", "150", "--stride", str(stride)]
    for job in ("a", "b"):
        assert main(["figure1", "--out", str(tmp_path / job)] + args) == 0
    # One cache per job, shared by the job's six writes and by no other job.
    assert len(caches) == 12 and caches[0] is not caches[6]
    assert all(cache is caches[0] for cache in caches[:6])
    assert all(cache is caches[6] for cache in caches[6:])
    p = GaParams(n=16, k=2, mu=6, p_c=1.0, chi=1.0, seed=seed)
    series = run_figure1(p, 3, stride=stride, max_iterations=150)
    assert sorted(dr.iterations for dr in series if not dr.found_optimum) == [150, 150]
    assert sum(dr.found_optimum for dr in series) == 1
    header = ("iteration",) + tuple(f"d{d}" for d in series[0].distances)
    alone = tmp_path / "alone"
    for dr in series:
        write_series_csv(dr.runs, alone.with_suffix(".csv"), header)
        title = f"pairwise distance frequencies (stream {dr.replicate})"
        render_svg(dr.runs, alone.with_suffix(".svg"), dr.distances, title=title)
        for suffix in (".csv", ".svg"):
            written = (tmp_path / "a" / f"figure1_seed{dr.replicate}").with_suffix(suffix)
            assert written.read_bytes() == alone.with_suffix(suffix).read_bytes()


# sha256 of every figure1 artifact but config.resolved at the series' edge
# shapes: the optimum found off a stride boundary (and on one, by replicate 6
# at step 7728 = 644 * 12), the default stride 10 at mu = 65 with the cap on a
# row time, stride 7 with the cap between row times, and the one-row series of
# caps 0 and 1.
_FIGURE1_EDGE_PINS = {
    "optimum_off_stride": (
        ["--n", "60", "--k", "3", "--mu", "12", "--stride", "12", "--seed", "5"],
        {
            "figure1_seed0.csv": "f7f64a74082bd17c848c5f000d09e5113d03f3570a551c73817eaebd0f9f2fb3",
            "figure1_seed0.svg": "e28ba39c3feaacd03e37c9c06d00c6135e35891a59845651b3b7128e7ce9b171",
            "figure1_seed1.csv": "342910cc98ab1f04cb3105a6cf542a545499d6846342ad4f00efe877f577dd66",
            "figure1_seed1.svg": "b4565f99bb378255c93a8e99f791d8423647e48b4dd72c6224057922d61498f2",
            "figure1_seed2.csv": "6b615ad1955b0a0b23e9583e4267777783ca2f52e39f9618b434f3480fe67ce8",
            "figure1_seed2.svg": "7c4d9bda61d4103b9e1a9f0008925ce7bb2ca1694a32901e2d19ce7b04faf8df",
            "figure1_seed3.csv": "ee6a2f63956bd6cb8a60348dcd6d66a0723920e52b68412b5b30e75e96f24114",
            "figure1_seed3.svg": "19a128ff8872b1c5d4daa262b456785e9dff6aea9f5b35eccbc40e6550a83c28",
            "figure1_seed4.csv": "af21e1a5d710470644f739547fdf1f89988fac23c145fb554d9c81a64de26a13",
            "figure1_seed4.svg": "4cbaedf9de63747c61d05b4d57f81bcc0fd6bf57b438064ba6c4b7f3af608fc2",
            "figure1_seed5.csv": "e8b47b0f3c398e935a4f4537258a0f9d290a5ef3e7a86ea1959e7f6f301015bb",
            "figure1_seed5.svg": "8b7db45895867d045de618806c43140791411f352fb5e2ebdce4dd19b5e68cc6",
            "figure1_seed6.csv": "ca36334715f86d50fc2e3e1946af32bcbc2f19200252b7e85f49f3be143c6cdb",
            "figure1_seed6.svg": "a14b8e853827c0ee6a4a2055caf2894cfbfe33aabfa24c0552fb3f739c0b92aa",
            "figure1_seed7.csv": "52a8fb5600d7a879e30db1a245c7463651a186a3fa59ca55bf40f15f7bfa844c",
            "figure1_seed7.svg": "5645a2ffc6ac22a67a8b2fee50a7150ed564472145a2a591fc312beb805464ad",
            "figure1_seed8.csv": "930f3c3b4157d9a4600c77f55a62ab680b5078d588e79e6f4904bae1af107f41",
            "figure1_seed8.svg": "29129a23004eb2019a819570f2fd81bad260fe5b6a40c566680f7f70ee3cd7da",
            "figure1_seed9.csv": "51fc44a1e77a6a32fcac3d7366cfb590c971dca5867082f4197771f65a16010a",
            "figure1_seed9.svg": "86029c11e5719c33320a04889d37de06f2b52fbc36cd55096401c2ef323ffb8f",
            "figure1_summary.json": "5291999d6b15aa2b736efe1568978328eb7625f970e7428fa745111897223c9c",
        },
    ),
    "default_stride_10": (
        ["--n", "100", "--k", "3", "--mu", "65", "--max-iterations", "2000", "--replicates", "2"],
        {
            "figure1_seed0.csv": "6c24e9060e7145d01b601e438f7096b0e5c343890584ae31d5db48c8508346ca",
            "figure1_seed0.svg": "b374a8be90ebacdf03a80b57f02fccd436ebca5e56bb62dd30745b8db302091f",
            "figure1_seed1.csv": "6c33bb7a64943edab2e80399822f37ca9e8376c123d4efc1f9bb22fc64af3827",
            "figure1_seed1.svg": "156391c7524f992bcaad7ce3d335835a6738000bcf1d1d29af67be5e9d83ab97",
            "figure1_summary.json": "0f6c95731761666195ee913aecedba4fd07188e01cd7b4188075658f7b7df44e",
        },
    ),
    "stride_7": (
        ["--stride", "7", "--max-iterations", "2000", "--replicates", "2"],
        {
            "figure1_seed0.csv": "7590159d8283c820776032671577a18f23f275023bb99dbd9357e24a81f88a8a",
            "figure1_seed0.svg": "53c8273a8539c7ecca009808ffb911fbc5fce04eb9e67383ed77e606f8247c44",
            "figure1_seed1.csv": "38f02c1582a34e77b5d5f84af85a2f3922a856a56e2d9be68a46b620102ef500",
            "figure1_seed1.svg": "ac6ba82e7c3dbe7cc3989c6c6ba20cf690b34b1bd00e293e00d46e1726c38391",
            "figure1_summary.json": "0f6c95731761666195ee913aecedba4fd07188e01cd7b4188075658f7b7df44e",
        },
    ),
    "no_step": (
        ["--max-iterations", "0", "--replicates", "2"],
        {
            "figure1_seed0.csv": "f53b05d7a9226ec6f831717b76bb8b2f436ec9694beaf502bbfdc8b365d8be09",
            "figure1_seed0.svg": "05a471db732588b469d56fa9bf79cda555c45b4d667b61f924ddab8ceeee7f6b",
            "figure1_seed1.csv": "f53b05d7a9226ec6f831717b76bb8b2f436ec9694beaf502bbfdc8b365d8be09",
            "figure1_seed1.svg": "5a32e4623d50ca522e56e16b52b87ddba4a77678ab6787463794e523a230eacc",
            "figure1_summary.json": "ed9c87ecc6c59c89e18953bd8eaff3aad4c36aef5165ddd8fbf3bc7a920a4505",
        },
    ),
    "one_step": (
        ["--max-iterations", "1", "--replicates", "2"],
        {
            "figure1_seed0.csv": "3b171599d6dd59791a24fa63f667d1ab48e0e1375a5fa740b1b74404bf1159e7",
            "figure1_seed0.svg": "d5c81b168ab8d2925acba18d94d9affebedb3a391d5ef23642bb63e3bdc56388",
            "figure1_seed1.csv": "3b171599d6dd59791a24fa63f667d1ab48e0e1375a5fa740b1b74404bf1159e7",
            "figure1_seed1.svg": "ed03ee16549b57e3150cb29c37a09cad8083f4a64e3a1db435e5ada8ef09e6a4",
            "figure1_summary.json": "817e5be1cc846c360ebb2f2990df723b272664488c9718d67bf2ad400e15caeb",
        },
    ),
}


@pytest.mark.parametrize("case", list(_FIGURE1_EDGE_PINS))
def test_figure1_edge_shapes_keep_their_artifact_bytes(tmp_path, case):
    args, pins = _FIGURE1_EDGE_PINS[case]
    assert main(["figure1", "--out", str(tmp_path)] + args) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.iterdir()
        if p.name != "config.resolved"
    }
    assert digests == pins


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
    full = (1 << 14) - 1
    a = full ^ 0b111
    b = full ^ (0b111 << 2)
    assert payload["exact_probability"] == exact_optimum_probability(a, b, 14, 1 / 14)
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


def test_sweep_subcommand_exits_3_when_a_bound_check_fails(tmp_path, monkeypatch, capsys):
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
    report = BoundReport("synthetic-check", 0.2, 0.01, 0.001, False)
    failed = SweepCell(4, 1, est, "synthetic", (report,))
    scarce = SweepCell(4, 1, replace(est, trials=50, inconclusive=True), "scarce", (report,))
    monkeypatch.setattr(cli, "run_bound_sweep", lambda params, mus, trials: (failed, scarce))
    rc = main(["sweep", "--out", str(tmp_path / "fail"), "--n", "60"])
    assert rc == 3
    assert capsys.readouterr().err == "1 bound cell(s) failed\n"
    lines = read_lines(tmp_path / "fail" / "transitions.csv")
    assert lines[1].endswith(",0.2,false")
    assert lines[2].endswith(",0.2,inconclusive")
    summary = json.loads((tmp_path / "fail" / "sweep_summary.json").read_text())
    assert (summary["failures"], summary["inconclusive"]) == (1, 1)
    assert [c["satisfied"] for c in summary["cells"]] == [False, None]


def run_child(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter that imports the package this process imported,
    installed or not."""
    path = [os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH")]
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )


def test_console_script_entry_point(tmp_path):
    proc = run_child(
        "-m", "jumpga.cli", "oracle", "--out", str(tmp_path / "cli"), "--n", "12", "--k", "2", "--d", "0"
    )
    assert proc.returncode == 0
    assert "exact=" in proc.stdout


# Whether numpy is loaded after each step, in a fresh interpreter: the CLI
# draws nothing before the first random stream, so nothing before it loads numpy.
# ``statistics`` is never loaded: the replicate summaries take their own median.
_NUMPY_PROBE = """
import json, sys
import jumpga, jumpga.cli
from jumpga.cli import main, parse_cli
from jumpga.core import make_rng

out = sys.argv[1]
seen = {"import": "numpy" in sys.modules}
for sub in sys.argv[2:]:
    parse_cli([sub, "--out", out])
    seen["parse_cli " + sub] = "numpy" in sys.modules
seen["--help"] = [main(["--help"]), "numpy" in sys.modules]
seen["bounds"] = [main(["bounds", "--out", out, "--mus", "4,8", "--n", "50"]), "numpy" in sys.modules]
seen["run --mu 0"] = [main(["run", "--out", out, "--mu", "0"]), "numpy" in sys.modules]
make_rng(1)
seen["make_rng"] = "numpy" in sys.modules
seen["statistics"] = "statistics" in sys.modules
print(json.dumps(seen))
"""


def test_cli_loads_numpy_only_with_the_first_random_stream(tmp_path):
    proc = run_child("-c", _NUMPY_PROBE, str(tmp_path / "out"), *_CLI_SUBCOMMANDS)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": False,
        **{f"parse_cli {sub}": False for sub in _CLI_SUBCOMMANDS},
        "--help": [0, False],
        "bounds": [0, False],
        "run --mu 0": [2, False],
        "make_rng": True,
        "statistics": False,
    }
