"""Golden per-event determinism trace for the engine hot path.

Engine-level optimisations (list-based heap entries, lazy cancellation with
compaction, slotted packets, flat-array delivery records) are only admissible
if they leave the simulation's event sequence untouched.  This test replays a
small but representative scenario — two flows (ABC + Cubic) over a
trace-driven cellular bottleneck, exercising opportunity firing, ACK clocking
and lazy RTO re-arming, with no sampler registered — while recording every
fired event as
``(repr(now), callback qualname)`` through the engine's trace hook, and
compares the sequence against a committed golden trace.

Any divergence — an event firing at a different time, in a different order,
or a different number of events — fails loudly.  Result-level equivalence
with the original per-ACK implementation is pinned separately by
``tests/test_path_golden.py``.  Regenerate the golden file only for an
*intentional* change to the event sequence::

    PYTHONPATH=src python tests/test_engine_golden_trace.py --regenerate
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.cc import make_cc
from repro.cellular.synthetic import lte_showcase_trace
from repro.core.params import ABCParams
from repro.core.router import ABCRouterQdisc
from repro.simulator.scenario import Scenario

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_event_trace.json"

DURATION = 3.0
TRACE_SEED = 11


def run_golden_scenario(hook=None) -> Scenario:
    """Build and run the canonical golden scenario (ABC + Cubic through one
    cellular ABC router), optionally under an engine trace hook."""
    trace = lte_showcase_trace(duration=DURATION, seed=TRACE_SEED)
    scenario = Scenario()
    scenario.env.set_trace_hook(hook)
    params = ABCParams()
    link = scenario.add_cellular_link(
        trace, qdisc=ABCRouterQdisc(params=params, buffer_packets=100),
        name="cell")
    scenario.add_flow(make_cc("abc", params=params), [link], rtt=0.08,
                      label="abc")
    scenario.add_flow(make_cc("cubic"), [link], rtt=0.08, label="cubic")
    scenario.run(DURATION)
    return scenario


def run_traced_scenario() -> list:
    """Run the canonical golden scenario and return the event log.

    The trace hook receives each entry's scheduled time (equal to ``now`` at
    dispatch) and the raw callback, so the log is the ``(repr(now),
    qualname)`` sequence of every fired event.
    """
    log: list = []

    def hook(time: float, callback, wall_ns: int) -> None:
        log.append((repr(time),
                    getattr(callback, "__qualname__",
                            getattr(callback, "__name__", str(callback)))))

    scenario = run_golden_scenario(hook)
    log.append(("final_now", repr(scenario.env.now)))
    log.append(("events_processed", str(scenario.env.events_processed)))
    return log


def _digest(log: list) -> str:
    payload = "\n".join(f"{t} {name}" for t, name in log)
    return hashlib.sha256(payload.encode()).hexdigest()


def test_event_sequence_matches_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    log = run_traced_scenario()
    # Head/tail first: a readable diff when something diverges.
    head = [list(entry) for entry in log[:len(golden["head"])]]
    tail = [list(entry) for entry in log[-len(golden["tail"]):]]
    assert head == golden["head"]
    assert tail == golden["tail"]
    assert len(log) == golden["n_entries"]
    # Then the full sequence, compressed to a digest.
    assert _digest(log) == golden["sha256"]


def _regenerate() -> None:
    log = run_traced_scenario()
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({
        "description": "per-event (time, callback) trace of the golden "
                       "scenario; regenerate only for intentional changes",
        "duration": DURATION,
        "trace_seed": TRACE_SEED,
        "n_entries": len(log),
        "sha256": _digest(log),
        "head": [list(entry) for entry in log[:80]],
        "tail": [list(entry) for entry in log[-20:]],
    }, indent=1))
    print(f"wrote {GOLDEN_PATH} ({len(log)} entries, sha {_digest(log)[:12]})")


if __name__ == "__main__":
    import sys
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
