"""Replay every committed fuzz-corpus entry as a deterministic regression.

Each JSON file under ``tests/data/fuzz_corpus/`` is a minimized scenario the
fuzzer (or a developer pinning a near-miss margin) committed.  Replaying it
must reproduce exactly what the entry expects:

* failing entries — the recorded invariant names trip again (a fixed bug
  flips the expectation, which is the visible, reviewable event);
* clean entries — no invariant trips *and* the run summary matches the
  pinned one bit-for-bit, so they double as determinism regressions: any
  unintentional behavior change in the simulator shows up here first.

To add an entry: run ``python tools/fuzz_scenarios.py --corpus-dir
tests/data/fuzz_corpus`` (failures are auto-minimized and serialized), or
build one by hand with :func:`repro.fuzz.shrink.corpus_entry`; see
``docs/ARCHITECTURE.md`` § Fuzzing.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz.campaign import evaluate_scenario
from repro.experiments.scenario_spec import ScenarioSpec
from repro.fuzz.shrink import load_corpus_entry

CORPUS_DIR = Path(__file__).parent / "data" / "fuzz_corpus"
ENTRIES = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_seeded():
    """The corpus ships with at least two committed scenarios."""
    assert len(ENTRIES) >= 2


@pytest.mark.parametrize("path", ENTRIES, ids=lambda p: p.stem)
def test_corpus_entry_replays_deterministically(path):
    entry = load_corpus_entry(path)
    scenario = ScenarioSpec.from_jsonable(entry["scenario"])
    scenario.validate()
    verdict = evaluate_scenario(scenario, check_determinism=True)
    tripped = sorted({name for name, _ in verdict["violations"]})

    expect = entry["expect"]
    if "violations" in expect:
        assert tripped == expect["violations"], (
            f"{path.name}: expected invariants {expect['violations']} to "
            f"trip, got {tripped} — if a bug was fixed intentionally, "
            f"update or retire this entry")
    else:
        assert tripped == [], (
            f"{path.name}: clean entry now trips {tripped}: "
            f"{verdict['violations']}")
        assert verdict["summary"] == expect["summary"], (
            f"{path.name}: run summary drifted from the pinned one — the "
            f"simulator's behavior changed; if intentional, regenerate the "
            f"entry (and bump CODE_VERSION_SALT)")
