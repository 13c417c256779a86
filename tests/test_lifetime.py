"""Lifetime of a cell: a finished scenario is freed by reference counting.

``Scenario.run`` ends by unwiring the topology it ran (``Scenario._unwire``),
so a finished cell holds no reference cycle and the last reference going away
— a sweep job returning its picklable result — releases all of it.  Before,
every dead cell was 1–2 MB of gen-2 cyclic garbage waiting for a full
collection that rarely comes (~14 of a ``metro_ack`` city's ~82 MiB).

Three things are pinned here:

* the invariant that keeps the cycles from coming back — with the collector
  off, ``gc.collect()`` finds nothing after any kind of cell the repo runs;
* a scenario runs once (a second ``run`` would find nothing wired);
* everything that is read *after* a run — ``ScenarioResult``, flows, cc
  objects, link and qdisc counters, the fuzz invariants, the telemetry
  harvest — still reads the unwired scenario, and reads the values taken at
  the commit before the teardown existed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import types
from collections import Counter, deque

import numpy as np
import pytest

from repro.cc.registry import make_cc
from repro.cellular.synthetic import lte_showcase_trace
from repro.experiments.coexistence import fig7_coexistence_timeseries
from repro.experiments.runner import SCHEME_NAMES, single_bottleneck_spec
from repro.experiments.scenario_spec import LinkSpec, spec_cell
from repro.experiments.wifi_eval import fig10_wifi
from repro.fuzz.campaign import evaluate_scenario
from repro.fuzz.generator import ScenarioGen
from repro.obs import metrics as obs_metrics
from repro.simulator.scenario import Scenario, ScenarioResult

from test_engine_golden_trace import DURATION, run_golden_scenario
from test_path_golden import metro_cell
from test_summaries import SUMMARY_CELLS

TRACE = lte_showcase_trace(duration=2.5, seed=7)
#: The two ledger city mixes (``benchmarks/ledger/workloads.py``).
MIXES = {"ack": "abc:0.6,cubic:0.3,bbr:0.1",
         "paced": "bbr:0.6,pcc:0.2,abc:0.2"}


def _probe_over_own_scenario() -> list:
    """A ``Scenario.every`` probe that reaches its state through the very
    scenario it samples: the pending probe event is the only link back."""
    scenario = Scenario()
    link = scenario.add_cellular_link(TRACE, name="cell")
    scenario.add_flow(make_cc("abc"), [link], rtt=0.08)
    samples: list = []
    scenario.every(0.05, lambda now: samples.append(
        (now, scenario.links[0].qdisc.backlog_packets,
         scenario.flows[0].cc.cwnd())))
    scenario.run(2.5)
    assert len(samples) > 40
    return samples


def _cases() -> dict:
    cases = {f"scheme-{scheme}": (lambda s=scheme: spec_cell(
        single_bottleneck_spec(s, TRACE, rtt=0.08, duration=2.5).to_jsonable(),
        "single_bottleneck")) for scheme in SCHEME_NAMES}
    # PK-ABC's look-ahead capacity_fn holds its link while attached.
    cases["scheme-pk-abc"] = lambda: spec_cell(single_bottleneck_spec(
        "pk-abc", TRACE, rtt=0.08, duration=2.5).to_jsonable(),
        "single_bottleneck")
    cases["two-bottlenecks"] = lambda: spec_cell(single_bottleneck_spec(
        "abc", TRACE, duration=2.5, extra_links=(12e6,)).to_jsonable(),
        "single_bottleneck")
    for name, mix in MIXES.items():
        cases[f"metro-{name}-trace"] = lambda m=mix: metro_cell(
            m, "trace-cell", TRACE, seed=1, duration=2.5)
        cases[f"metro-{name}-square"] = lambda m=mix: metro_cell(
            m, "square-cell", LinkSpec("square", {
                "low_bps": 12e6, "high_bps": 24e6, "half_period": 0.5}),
            seed=1, duration=2.5)
    cases["fig10-wifi"] = lambda: fig10_wifi(num_users=2, duration=2.0)
    cases["fig7-coexistence"] = lambda: fig7_coexistence_timeseries(
        duration=4.0, stagger=1.0)
    # One spec_cell per summary: a summary's sampler closure (Fig. 6's
    # ``samples`` / ``cc``) must not keep its Scenario alive.
    for summary, (spec, args) in SUMMARY_CELLS.items():
        name = "fig6-cell" if summary == "fig6" else f"summary-{summary}"
        cases[name] = lambda s=spec, n=summary, a=args: spec_cell(
            s().to_jsonable(), n, **a)
    cases["probe-over-own-scenario"] = _probe_over_own_scenario
    gen = ScenarioGen(seed=0)
    for index in range(10):
        cases[f"fuzz-{index}"] = lambda f=gen.sample(index): evaluate_scenario(
            f, check_determinism=False)
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", list(CASES))
def test_finished_cell_leaves_no_cyclic_garbage(case):
    run = CASES[case]
    run()  # warm-up: lazy imports leave a few hundred one-off objects
    gc.collect()
    gc.disable()
    try:
        result = run()
        del result
        gc.set_debug(gc.DEBUG_SAVEALL)  # keep what is found, to name it
        found = gc.collect()
        by_type = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert found == 0, (
        f"{case}: {found} objects were only reachable through a reference "
        f"cycle: {by_type.most_common(8)}")


def test_scenario_is_single_shot():
    scenario = Scenario()
    link = scenario.add_rate_link(12e6)
    flow = scenario.add_flow(make_cc("cubic"), [link], rtt=0.05)
    scenario.run(0.5)
    sent = flow.sender.packets_sent
    with pytest.raises(RuntimeError, match="already been run"):
        scenario.run(0.5)
    assert flow.sender.packets_sent == sent > 0


# ------------------------------------------------- reading an unwired scenario
#: Taken on the golden scenario at the parent of the commit that added the
#: teardown (``Scenario.run`` then returned a fully wired topology).
GOLDEN_VIEW = {
    "summary": {"throughput_bps": 9212000.0,
                "utilization": 0.9247699079631853,
                "delay_p95_ms": 205.43110224285198,
                "delay_mean_ms": 124.78672783017304,
                "queuing_p95_ms": 165.43110224285192,
                "drops": 341.0},
    "utilization_after_1s": 1.0,
    "offered_bits": 29988000.0,
    "link": [2745, 2311, 341, 0],
    "qdisc": [341, 86, 93, 139500],
    "flows": [[159, 238500, 1.0, None, 1, 184],
              [2144, 3216000, 128.47334218404384, None, 128, 2562]],
}
GOLDEN_COUNTERS = {
    "engine.events_dispatched": 7578, "link.arrived_packets": 2745,
    "link.delivered_packets": 2311, "link.dropped_packets": 341,
    "link.random_loss_packets": 0, "receiver.packets_received": 2303,
    "scenario.runs": 1, "sender.acks_received": 2299, "sender.pace_halts": 0,
    "sender.pace_ticks": 0, "sender.packets_sent": 2746,
    "sender.retransmissions": 318, "sender.rto_rearms": 2688,
    "sender.timeouts": 2,
}
#: sha256 of the first fuzz scenarios' run summaries, same provenance; the
#: second (a CoDel bottleneck) was re-taken when CoDel came to follow
#: RFC 8289 as written.
GOLDEN_FUZZ = [
    "2ad9a31d4e6dc240ae734f74a05d95acbd31c3802e4863d6fd7b8d618b354a00",
    "2af05553d0b8aea2f105ffbea6c26246e116711607cdcc5d9f1120c259c9ee96",
    "8c812d909e85028651db8fff5f7accb148777e935f1c217e164cbf0bba135934",
]


def test_unwired_scenario_reads_as_before(monkeypatch):
    obs_metrics.registry().reset()
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    try:
        scenario = run_golden_scenario()
        counters = obs_metrics.registry().snapshot()["counters"]
    finally:
        obs_metrics.registry().reset()
    link = scenario.links[0]
    assert not link.routes and link.qdisc.link is None  # really unwired
    assert scenario.env.pending == 0
    result = ScenarioResult(scenario)
    qdisc = link.qdisc
    delays = np.concatenate([flow.stats.delays() for flow in scenario.flows])
    assert {
        "summary": {
            "throughput_bps": result.aggregate_throughput_bps(),
            "utilization": result.link_utilization(link),
            "delay_p95_ms": result.aggregate_delay_percentile_ms(95),
            "delay_mean_ms": float(np.mean(delays)) * 1000.0,
            "queuing_p95_ms": result.aggregate_delay_percentile_ms(
                95, kind="queuing"),
            "drops": float(result.link_drops(link)),
        },
        "utilization_after_1s": result.link_utilization(link, t0=1.0),
        "offered_bits": link.offered_bits(0.0, DURATION),
        "link": [link.arrived_packets, link.delivered_packets,
                 link.dropped_packets, link.packets_in_transmission],
        "qdisc": [qdisc.dropped_packets, qdisc.marked_packets,
                  qdisc.backlog_packets, qdisc.backlog_bytes],
        "flows": [[len(flow.stats), flow.stats.bytes_received, flow.cc.cwnd(),
                   flow.sender.completion_time, flow.sender.in_flight,
                   flow.sender.packets_sent] for flow in scenario.flows],
    } == GOLDEN_VIEW
    # The harvest runs before the teardown and reports what it always did.
    assert counters == GOLDEN_COUNTERS


def test_fuzz_invariants_read_an_unwired_scenario():
    """All five invariants (and the determinism summary) are computed from a
    finished, unwired scenario."""
    gen = ScenarioGen(seed=0)
    for index, digest in enumerate(GOLDEN_FUZZ):
        verdict = evaluate_scenario(gen.sample(index),
                                    check_determinism=False)
        assert verdict["violations"] == []
        assert hashlib.sha256(json.dumps(
            verdict["summary"], sort_keys=True).encode()).hexdigest() == digest


# ------------------------------------------------------------ object layout
#: CPython 3.11 shares one key table among a class's instance dicts, and so
#: specialises ``self.x`` to an indexed load or store, only while an instance
#: holds at most 30 attributes; past that the dict is a combined table and
#: every attribute access takes the slower hashed path.  ``Sender`` once held
#: 35 and paid that on every ACK and pacing tick.  ``tools/count_gate.py``
#: cannot see it: the bytecodes are the same, only their specialisation
#: differs.  A per-packet class past the limit declares ``__slots__``.
SHARED_KEYS_LIMIT = 30


def _repro_objects(root) -> list:
    """Every object of a ``repro`` class reachable from ``root`` through
    attributes, slots, containers and bound methods (the event heap's
    callbacks)."""
    scalars = (int, float, str, bytes, type(None), np.ndarray)
    seen, todo, found = set(), [root], []
    while todo:
        obj = todo.pop()
        if isinstance(obj, scalars) or id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple, set, frozenset, deque)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif isinstance(obj, types.MethodType):
            todo.append(obj.__self__)
        elif type(obj).__module__.startswith("repro."):
            found.append(obj)
            todo.extend(getattr(obj, "__dict__", {}).values())
            for cls in type(obj).__mro__:
                slots = cls.__dict__.get("__slots__", ())
                todo.extend(getattr(obj, slot, None) for slot in (
                    (slots,) if isinstance(slots, str) else slots))
    return found


@pytest.mark.parametrize("cell", ["metro-paced", "fig9-pcc", "fig9-bbr"])
def test_no_per_packet_object_outgrows_shared_key_dicts(cell):
    from repro.experiments.scenario_spec import build
    from repro.metro.spec import MetroSpec

    if cell == "metro-paced":
        spec = MetroSpec(schemes=[MIXES["paced"]], traces={},
                         duration=2.0).cell_spec(MIXES["paced"], "trace-cell",
                                                 TRACE, 1)
    else:
        spec = single_bottleneck_spec(cell[5:], TRACE, duration=2.0)
    built = build(spec)
    scenario, widest = built.scenario, {}

    def walk(_now):
        for obj in _repro_objects(scenario):
            name = type(obj).__qualname__
            size = len(vars(obj)) if hasattr(obj, "__dict__") else 0
            widest[name] = max(widest.get(name, 0), size)

    scenario.every(0.5, walk)
    scenario.run(spec.duration)
    (link,) = scenario.links
    reached = {type(obj).__qualname__ for obj in (
        scenario, scenario.env, link, link.qdisc, built.flows[0].cc,
        built.flows[0].sender, built.flows[0].receiver)}
    assert reached <= set(widest)
    wide = {name: n for name, n in widest.items() if n > SHARED_KEYS_LIMIT}
    assert not wide, f"instances past CPython's shared-key limit: {wide}"
