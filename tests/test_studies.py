"""The study scripts in ``studies/`` run at a toy size.

A script whose numbers are timings, which differ from run to run, is checked
for finishing and for its table's shape; any other is checked for printing the
same bytes on a rerun.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import jumpga

STUDIES = Path(__file__).resolve().parents[1] / "studies"


def load_study(name: str):
    spec = importlib.util.spec_from_file_location(f"study_{name}", STUDIES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_cost_prints_one_row_per_setting(capsys):
    study = load_study("step_cost")
    assert study.main(["--steps", "20"]) == 0
    out, err = capsys.readouterr()
    header, rule, *rows = out.splitlines()
    assert header.startswith("| n | k | mu | p_c | start |") and rule.startswith("| --- |")
    assert len(rows) == len(study.SETTINGS)
    for (n, mu, p_c, start), row in zip(study.SETTINGS, rows):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[:5] == [str(n), "3", str(mu), f"{p_c:g}", start]
        assert float(cells[5]) > 0
    assert {p_c for _, _, p_c, _ in study.SETTINGS} == {0.5, 1.0}
    assert err.startswith("wall ")


def test_figure1_cost_prints_one_row_per_part_and_the_series_size(capsys):
    study = load_study("figure1_cost")
    assert study.main(["--max-iterations", "30", "--repeats", "1"]) == 0
    out, err = capsys.readouterr()
    header, rule, *rows, total, blank, sizes = out.splitlines()
    assert header.startswith("| part | ms per job") and rule == "| --- | --- |"
    cells = [[c.strip() for c in row.strip("|").split("|")] for row in rows + [total]]
    assert [name for name, _ in cells] == [*study.PARTS, "total"]
    assert all(float(ms) >= 0 for _, ms in cells)
    # Three replicates of rows 0..30 at stride 1, in at least one stretch each.
    assert blank == "" and sizes.startswith("93 rows in ")
    assert sizes.endswith(" unchanged stretches per job")
    assert err.startswith("wall ")


def test_code_size_counts_code_lines_and_its_rows_sum_to_the_total(capsys):
    study = load_study("code_size")
    source = (
        '"""Module docstring."""\n\n# a comment\nx = 1  # trailing\n\n'
        'def f():\n    """Docstring\n    on two lines."""\n    return """not a\n    docstring"""\n'
    )
    assert study.code_lines(source) == 4  # x = 1, def f(), and the two-line return
    assert study.main() == 0
    out = capsys.readouterr().out
    assert study.main() == 0
    assert capsys.readouterr().out == out
    header, rule, *rest = out.splitlines()
    assert (header, rule) == ("| module | code lines |", "| --- | --- |")
    *rows, total = [row.strip("|").split("|") for row in rest[: rest.index("")]]
    modules = sorted(p.name for p in Path(jumpga.__file__).parent.glob("*.py"))
    assert [name.strip() for name, _ in rows] == modules
    assert total[0].strip() == "total" and int(total[1]) == sum(int(lines) for _, lines in rows)
    assert rest[-1] == f"`jumpga.__all__`: {len(jumpga.__all__)} names"


def test_draw_cost_prints_one_row_per_n(capsys):
    study = load_study("draw_cost")
    assert study.main(["--uniforms", "200", "--repeats", "1"]) == 0
    out, err = capsys.readouterr()
    header, rule, *rows = out.splitlines()
    assert header.startswith("| n | table entries | decided by two entries |")
    assert rule.startswith("| --- |")
    assert len(rows) == len(study.NS)
    for n, row in zip(study.NS, rows):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[0] == str(n) and len(cells) == 3 + len(study.BODIES)
        assert 0 < float(cells[2]) < 1
    assert err.startswith("wall ")
