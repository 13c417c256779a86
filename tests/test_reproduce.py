"""``tools/reproduce.py``: the one command that regenerates the paper's
evaluation.  Its rows are data, so these tests hold the table's shape, that
``--list`` resolves every entry point, that two cheap rows run end to end,
and that a failing check shows in the exit status and the output."""

from __future__ import annotations

import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import reproduce  # noqa: E402

FIGURES = [f"fig{n:02d}" for n in range(1, 19)] + ["table1"]


def test_rows_are_unique_checked_and_cover_every_figure():
    ids = [row.id for row in reproduce.ROWS]
    assert len(ids) == len(set(ids))
    assert all(row.checks for row in reproduce.ROWS)
    assert set(FIGURES) <= set(ids)
    for row in reproduce.ROWS:
        assert row.calls and all(re.fullmatch(r"repro(\.\w+)+:\w+", target)
                                 for target, _ in row.calls), row.id


def test_list_resolves_every_entry_point(capsys):
    assert reproduce.main(["--list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == [row.id for row in reproduce.ROWS]


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
