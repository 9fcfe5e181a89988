"""The study scripts in ``studies/`` run at a toy size.

Their numbers are timings, which differ from run to run, so the tests check
that each script finishes and prints its table's shape, not its bytes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

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
    assert header.startswith("| n | k | mu | start |") and rule.startswith("| --- |")
    assert len(rows) == len(study.SETTINGS)
    for (n, mu, start), row in zip(study.SETTINGS, rows):
        cells = [c.strip() for c in row.strip("|").split("|")]
        assert cells[:4] == [str(n), "3", str(mu), start]
        assert float(cells[4]) > 0
    assert err.startswith("wall ")
