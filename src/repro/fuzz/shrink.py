"""Greedy delta-debugging minimizer for failing fuzz scenarios.

Given a :class:`~repro.experiments.scenario_spec.ScenarioSpec` and a
``fails`` predicate (``ScenarioSpec -> bool``, True while the bug still
reproduces), :func:`shrink_scenario` repeatedly tries structure- and
value-simplifying transformations and keeps any variant that still fails.
The result is the smallest scenario this greedy walk reaches — fewer
flows, shorter runs, rounder parameters — which is what gets committed to
``tests/data/fuzz_corpus/`` as a regression test.

The predicate is injected rather than hard-wired to the invariant suite so
the shrinker itself is unit-testable with pure functions (no simulation);
the campaign layer passes a predicate that re-runs the simulation and checks
whether the original invariant still trips.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Callable, Iterator, List

from repro.experiments.scenario_spec import ScenarioSpec

#: Buffer sizes the shrinker rounds down through.
_BUFFER_LADDER = (10, 25, 50, 100, 250)

#: Round-number rates (bps) tried as replacements, smallest first.
_RATE_LADDER = (1e6, 2e6, 5e6, 10e6, 20e6)


def _clone(scenario: ScenarioSpec) -> ScenarioSpec:
    return ScenarioSpec.from_jsonable(scenario.to_jsonable())  # deep copy


def _candidates(scenario: ScenarioSpec) -> Iterator[ScenarioSpec]:
    """Yield simplified variants of ``scenario``, most aggressive first.

    Every yielded variant is valid by construction (callers still run
    ``validate`` defensively).  Order matters for greed: structural deletions
    (flows, the backhaul link) come before value simplifications.
    """
    # 1. Drop a flow.
    if len(scenario.flows) > 1:
        for index in range(len(scenario.flows)):
            variant = _clone(scenario)
            del variant.flows[index]
            yield variant
    # 2. Drop the wired backhaul hop.
    if len(scenario.links) > 1:
        variant = _clone(scenario)
        variant.links = [link for link in variant.links
                         if link.role == "bottleneck"]
        yield variant
    # 3. Halve the duration (floor at 1 s, rounded to a tenth).
    if scenario.duration > 1.0:
        variant = _clone(scenario)
        variant.duration = max(1.0, round(scenario.duration / 2.0, 1))
        for flow in variant.flows:
            flow.start_time = min(flow.start_time, variant.duration / 2.0)
        yield variant
    # 4. Remove random loss.
    if any(link.loss_rate > 0.0 for link in scenario.links):
        variant = _clone(scenario)
        for link in variant.links:
            link.loss_rate = 0.0
        yield variant
    # 5. Simplify the bottleneck capacity model.
    bottleneck = scenario.links[0]
    rate_key = {"cellular": "mean_rate_bps",
                "square": "low_bps"}.get(bottleneck.kind)
    if rate_key is not None:
        variant = _clone(scenario)
        variant.links[0] = dataclasses.replace(
            bottleneck, kind="constant",
            params={"rate_bps": bottleneck.params[rate_key]})
        yield variant
    # 6. Round rates to the ladder (next round number at or below).
    for key in ("rate_bps", "low_bps", "high_bps", "mean_rate_bps"):
        value = bottleneck.params.get(key)
        if value is None:
            continue
        rounded = max((r for r in _RATE_LADDER if r <= value), default=None)
        if rounded is not None and rounded != value:
            variant = _clone(scenario)
            variant.links[0].params[key] = rounded
            yield variant
    # 7. Shrink the buffer down the ladder.
    smaller = max((b for b in _BUFFER_LADDER
                   if b < bottleneck.buffer_packets), default=None)
    if smaller is not None:
        variant = _clone(scenario)
        variant.links[0].buffer_packets = smaller
        yield variant
    # 8. Canonicalise flows: zero start times, round RTTs to 10 ms.
    for index, flow in enumerate(scenario.flows):
        if flow.start_time > 0.0:
            variant = _clone(scenario)
            variant.flows[index].start_time = 0.0
            yield variant
        rounded_rtt = max(0.01, round(flow.rtt, 2))
        if rounded_rtt != flow.rtt:
            variant = _clone(scenario)
            variant.flows[index].rtt = rounded_rtt
            yield variant


def shrink_scenario(scenario: ScenarioSpec,
                    fails: Callable[[ScenarioSpec], bool],
                    max_attempts: int = 200) -> ScenarioSpec:
    """Greedily minimize ``scenario`` while ``fails`` stays True.

    ``max_attempts`` caps the total number of predicate evaluations (each
    one is typically a full simulation), so shrinking cannot run away on a
    pathological scenario.
    """
    if not fails(scenario):
        raise ValueError("shrink_scenario needs a failing scenario to start")
    current = _clone(scenario)
    attempts = 1  # the initial confirmation above
    progress = True
    while progress and attempts < max_attempts:
        progress = False
        for variant in _candidates(current):
            if attempts >= max_attempts:
                break
            try:
                variant.validate()
            except ValueError:
                continue
            attempts += 1
            if fails(variant):
                current = variant
                progress = True
                break  # restart from the shrunk scenario
    return current


# ---------------------------------------------------------------------------
# Corpus serialization
# ---------------------------------------------------------------------------
CORPUS_FORMAT = 1


def corpus_entry(scenario: ScenarioSpec, violations: List[str],
                 description: str = "") -> dict:
    """Build a corpus-entry dict that pins the invariant names that must
    trip on replay.  (A clean entry, which pins a run summary instead, is
    written by hand; ``load_corpus_entry`` reads both.)
    """
    return {
        "format": CORPUS_FORMAT,
        "description": description,
        "scenario": scenario.to_jsonable(),
        "expect": {"violations": sorted(set(violations))},
    }


def save_corpus_entry(entry: dict, path: Path) -> None:
    """Write one entry as deterministic, diff-friendly JSON."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(entry, indent=2, sort_keys=True) + "\n")


def load_corpus_entry(path: Path) -> dict:
    entry = json.loads(path.read_text())
    if entry.get("format") != CORPUS_FORMAT:
        raise ValueError(f"{path}: unsupported corpus format "
                         f"{entry.get('format')!r}")
    return entry
