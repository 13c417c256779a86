"""``tools/reproduce.py``: the one command that regenerates the paper's
evaluation.  Its rows are data, so these tests hold the table's shape, that
``--list`` builds every row's cells, that two cheap rows run end to end,
and that a failing check shows in the exit status and the output."""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.experiments.figures import FIGURES

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import reproduce  # noqa: E402

PAPER = [f"fig{n:02d}" for n in range(1, 19)] + ["table1"]


def test_rows_are_unique_checked_and_cover_every_figure():
    ids = [row.id for row in reproduce.ROWS]
    assert len(ids) == len(set(ids))
    assert all(row.checks for row in reproduce.ROWS)
    assert set(PAPER) <= set(ids)
    runs = [run for row in reproduce.ROWS for run in row.runs]
    assert all(callable(run) or run in FIGURES for run in runs)
    assert sorted(run for run in runs if not callable(run)) == sorted(FIGURES)


def test_list_resolves_every_entry_point(capsys):
    """``--list`` builds every row's cells (one line per figure it runs,
    with its summaries and cell count) and runs nothing."""
    assert reproduce.main(["--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sorted({line.split()[0] for line in lines}) == sorted(
        row.id for row in reproduce.ROWS)
    counted = [line for line in lines if re.search(r"\(\d+ cells\)$", line)]
    assert len(counted) == len(FIGURES)
    assert "fig09      single_bottleneck (96 cells)" in lines


def test_cheap_rows_run_end_to_end_and_pass(capsys):
    assert reproduce.main(["fig04", "marking"]) == 0
    out = capsys.readouterr().out
    assert "=== Fig. 4 — inter-ACK time vs batch size ===" in out
    assert "PASS  marking.token_gaps_steadier_than_probabilistic" in out
    assert "FAIL" not in out
    assert "2/2 checks passed in 2 rows" in out


def test_a_false_check_fails_the_run_by_name(monkeypatch, capsys):
    (marking,) = [row for row in reproduce.ROWS if row.id == "marking"]
    name = "token_gaps_steadier_than_probabilistic"
    monkeypatch.setitem(marking.checks, name, lambda stats: False)
    assert reproduce.main(["marking"]) != 0
    out = capsys.readouterr().out
    assert f"FAIL  marking.{name}" in out
    assert f"failed: marking.{name}" in out


def test_a_raising_row_fails_the_run(monkeypatch, capsys):
    (marking,) = [row for row in reproduce.ROWS if row.id == "marking"]
    monkeypatch.setattr(reproduce, "ROWS", [marking._replace(
        tables=lambda stats: 1 / 0)])
    assert reproduce.main(["marking"]) != 0
    out = capsys.readouterr().out
    assert "FAIL  marking raised" in out
    assert "0/1 checks passed" in out
