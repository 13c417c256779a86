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
from collections import Counter

import pytest

from repro.cc import make_cc
from repro.cellular.synthetic import lte_showcase_trace
from repro.experiments.coexistence import (fig6_cell,
                                           fig7_coexistence_timeseries)
from repro.experiments.runner import SCHEME_NAMES, run_single_bottleneck
from repro.experiments.wifi_eval import fig10_wifi
from repro.fuzz.campaign import evaluate_scenario
from repro.fuzz.generator import ScenarioGen
from repro.metro.cell import metro_cell
from repro.obs import metrics as obs_metrics
from repro.simulator.scenario import Scenario, ScenarioResult

from test_engine_golden_trace import DURATION, run_golden_scenario

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
    cases = {f"scheme-{scheme}": (lambda s=scheme: run_single_bottleneck(
        s, TRACE, rtt=0.08, duration=2.5)) for scheme in SCHEME_NAMES}
    cases["two-bottlenecks"] = lambda: run_single_bottleneck(
        "abc", TRACE, duration=2.5, extra_links=(12e6,))
    for name, mix in MIXES.items():
        cases[f"metro-{name}-trace"] = lambda m=mix: metro_cell(
            m, "trace-cell", TRACE, seed=1, duration=2.5)
        cases[f"metro-{name}-square"] = lambda m=mix: metro_cell(
            m, "square-cell", ("square", 12e6, 24e6, 0.5), seed=1,
            duration=2.5)
    cases["fig10-wifi"] = lambda: fig10_wifi(num_users=2, duration=2.0)
    cases["fig7-coexistence"] = lambda: fig7_coexistence_timeseries(
        duration=4.0, stagger=1.0)
    cases["fig6-cell"] = lambda: fig6_cell(
        duration=6.0, wired_mbps=12.0, rtt=0.1, sample_interval=0.5,
        cross_traffic=True)
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
    "engine.compactions": 0, "engine.events_cancelled": 0,
    "engine.events_dispatched": 7578, "link.arrived_packets": 2745,
    "link.delivered_packets": 2311, "link.dropped_packets": 341,
    "link.random_loss_packets": 0, "receiver.packets_received": 2303,
    "scenario.runs": 1, "sender.acks_received": 2299, "sender.pace_halts": 0,
    "sender.pace_ticks": 0, "sender.packets_sent": 2746,
    "sender.retransmissions": 318, "sender.rto_rearms": 2688,
    "sender.timeouts": 2,
}
#: sha256 of the first fuzz scenarios' run summaries, same provenance.
GOLDEN_FUZZ = [
    "2ad9a31d4e6dc240ae734f74a05d95acbd31c3802e4863d6fd7b8d618b354a00",
    "d3d692d182ccfd961ee7db74c66ce353b2f2e6aa632c0ca6e5ba360f329a4f5b",
    "8c812d909e85028651db8fff5f7accb148777e935f1c217e164cbf0bba135934",
]


def test_unwired_scenario_reads_as_before():
    obs_metrics.registry().reset()
    try:
        with obs_metrics.override(True):
            scenario = run_golden_scenario()
        counters = obs_metrics.registry().snapshot()["counters"]
    finally:
        obs_metrics.registry().reset()
    link = scenario.links[0]
    assert link.dst is None and link.qdisc.link is None  # really unwired
    assert scenario.env.pending == 0
    result = ScenarioResult(scenario)
    qdisc = link.qdisc
    assert {
        "summary": result.summary(),
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
