"""Golden result digests for the simulator's per-packet path.

The sender's ACK handler and pacing tick, the lazy RTO timer, the links'
handle-free transmissions, the demux's inline receiver delivery and the ABC
router's flattened enqueue/dequeue are written as straight-line code for
speed.  What makes that admissible is that every *result* a simulation
reports — each per-packet timestamp, delay, drop count and completion time —
is bit-identical to what the original call-per-step implementation (one heap
cancel + push per RTO re-arm, a hop-bounce event per forward, per-ACK send
loops) produced.  This suite pins that: each scenario below is reduced to a
sha256 over its full summary (per-packet float lists included, no
tolerances) and compared with ``tests/data/golden_path_results.json``, which
was generated *from that original implementation* just before it was deleted
(the commit is named in the file's ``description``).

Scenarios: every paper scheme end to end on a cellular trace; an outage
trace that forces RTO expiry and recovery; the golden-event-trace scenario;
metro cells (trace-driven, square-wave, fixed-rate; churn on, mixed schemes);
pacing schemes on a trace, under CoDel/PIE, with random loss, sharing a
bottleneck with a window scheme, and as finite flows.

Regenerate only for an *intentional* change to simulation semantics::

    PYTHONPATH=src python tests/test_path_golden.py --regenerate
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.aqm import CoDelQdisc, PIEQdisc
from repro.cc import make_cc
from repro.cellular.synthetic import lte_showcase_trace
from repro.core.router import ABCRouterQdisc
from repro.experiments.runner import run_single_bottleneck
from repro.metro.cell import metro_cell
from repro.simulator.endpoints import IDLE_PACING_POLL
from repro.simulator.engine import EventLoop
from repro.simulator.scenario import Scenario
from repro.simulator.traffic import FixedSizeSource

from test_engine_golden_trace import run_golden_scenario
from test_scheme_golden import GOLDEN_WIRING

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_path_results.json"

PACED_SCHEMES = ("bbr", "pcc")


def flow_summary(flow) -> dict:
    """Everything a flow reports, including full per-packet float lists."""
    stats = flow.stats
    sender = flow.sender
    return {
        "bytes_received": stats.bytes_received,
        "recv_times": list(stats.recv_times),
        "sent_times": list(stats.sent_times),
        "sizes": list(stats.sizes),
        "queuing_delays": list(stats.queuing_delays),
        "first_recv_time": stats.recv_times[0] if stats.recv_times else None,
        "last_recv_time": stats.last_recv_time,
        "packets_sent": sender.packets_sent,
        "retransmissions": sender.retransmissions,
        "timeouts": sender.timeouts,
        "acks_received": sender.acks_received,
        "bytes_acked": sender.bytes_acked,
        "completion_time": sender.completion_time,
    }


def scenario_summary(scenario, links) -> dict:
    return {
        "flows": [flow_summary(flow) for flow in scenario.flows],
        "drops": [link.dropped_packets for link in links],
        "delivered": [link.delivered_packets for link in links],
        "final_now": scenario.env.now,
    }


# ------------------------------------------------------------------ builders
def _scheme_on_trace(scheme):
    def run():
        result = run_single_bottleneck(
            scheme, lte_showcase_trace(duration=2.5, seed=7),
            rtt=0.08, duration=2.5, buffer_packets=150)
        # ``extra`` holds live simulation objects; the flow's full per-packet
        # record is captured through flow_summary instead.
        summary = {key: value
                   for key, value in dataclasses.asdict(result).items()
                   if key != "extra"}
        flow = result.extra.get("flow")
        if flow is not None:
            summary["flow"] = flow_summary(flow)
        return summary
    return run


def _outage(scheme):
    # A 1.2 s hole in the opportunity schedule: ACK clocking stalls, the RTO
    # fires and recovery retransmits — where a lazily re-armed deadline timer
    # and a cancel-and-repush one have the most room to disagree.
    times = ([i * 0.004 for i in range(200)]            # 0.0 - 0.8 s
             + [2.0 + i * 0.004 for i in range(500)])   # 2.0 - 4.0 s

    def run():
        scenario = Scenario()
        link = scenario.add_cellular_link(list(times), name="outage-cell")
        scenario.add_flow(make_cc(scheme), [link], rtt=0.06, label=scheme)
        scenario.run(4.0)
        summary = scenario_summary(scenario, [link])
        assert summary["flows"][0]["timeouts"] >= 1, (
            "outage scenario no longer triggers an RTO")
        return summary
    return run


def _golden_trace_scenario():
    scenario = run_golden_scenario()
    return scenario_summary(scenario, scenario.links)


def _metro(label, link_spec, mix="abc:0.6,cubic:0.3,bbr:0.1", seed=3):
    def run():
        result = metro_cell(mix=mix, cell=f"diff-{label}",
                            link_spec=link_spec, seed=seed, duration=4.0,
                            arrival_rate=2.0)
        assert result["offered_flows"] > 2, "churn arrivals disappeared"
        return result
    return run


def _single_flow(scheme, add_link, rtt, guard=None):
    def run():
        scenario = Scenario()
        link = add_link(scenario)
        scenario.add_flow(make_cc(scheme), [link], rtt=rtt, label=scheme)
        scenario.run(3.0)
        summary = scenario_summary(scenario, [link])
        if guard is not None:
            assert summary["flows"][0][guard] > 0, (
                f"{scheme}: scenario no longer exercises {guard}")
        return summary
    return run


def _mixed_bottleneck():
    # BBR + PCC + Cubic on one queue: paced and ACK-clocked senders
    # interleave on the same demux and qdisc.
    scenario = Scenario()
    link = scenario.add_cellular_link(
        lte_showcase_trace(duration=3.0, seed=13), name="shared")
    for scheme in ("bbr", "pcc", "cubic"):
        scenario.add_flow(make_cc(scheme), [link], rtt=0.08, label=scheme)
    scenario.run(3.0)
    return scenario_summary(scenario, [link])


def _churn_scenario():
    scenario = Scenario()
    link = scenario.add_rate_link(12e6, name="bottleneck")
    for i, size in enumerate((40_000, 200_000, 1_000_000)):
        scenario.add_flow(make_cc("bbr"), [link], rtt=0.05,
                          start_time=0.1 * i, source=FixedSizeSource(size),
                          label=f"churn-{i}")
    scenario.add_flow(make_cc("pcc"), [link], rtt=0.05,
                      source=FixedSizeSource(300_000), label="churn-pcc")
    scenario.run(6.0)
    return scenario, link


def _finite_paced_flows():
    scenario, link = _churn_scenario()
    summary = scenario_summary(scenario, [link])
    assert all(f["completion_time"] is not None for f in summary["flows"]), (
        "every finite flow was expected to finish within the horizon")
    return summary


def _cases() -> dict:
    cases = {f"scheme-{s}": _scheme_on_trace(s) for s in sorted(GOLDEN_WIRING)}
    cases.update({f"outage-{s}": _outage(s) for s in ("abc", "cubic", "bbr")})
    cases["golden-trace-scenario"] = _golden_trace_scenario
    cases["metro-square-wave"] = _metro("square", ("square", 10e6, 24e6, 0.5))
    cases["metro-fixed-rate"] = _metro("rate", 30e6)
    cases["metro-trace"] = _metro(
        "trace", lte_showcase_trace(duration=4.0, seed=5),
        mix="abc:0.5,cubic:0.2,bbr:0.1,pcc:0.1,sprout:0.1", seed=1)
    for scheme in PACED_SCHEMES:
        cases[f"paced-{scheme}-trace"] = _single_flow(
            scheme, lambda s: s.add_cellular_link(
                lte_showcase_trace(duration=3.0, seed=9), name="cell"),
            rtt=0.08, guard="packets_sent")
        cases[f"paced-{scheme}-codel"] = _single_flow(
            scheme, lambda s: s.add_rate_link(
                8e6, qdisc=CoDelQdisc(buffer_packets=60), name="aqm"),
            rtt=0.06)
        cases[f"paced-{scheme}-pie"] = _single_flow(
            scheme, lambda s: s.add_rate_link(
                8e6, qdisc=PIEQdisc(buffer_packets=60), name="aqm"),
            rtt=0.06)
        cases[f"paced-{scheme}-random-loss"] = _single_flow(
            scheme, lambda s: s.add_rate_link(
                10e6, loss_rate=0.02, loss_seed=4, name="lossy"),
            rtt=0.05, guard="retransmissions")
    cases["paced-mixed-bottleneck"] = _mixed_bottleneck
    cases["paced-finite-flows"] = _finite_paced_flows
    return cases


CASES = _cases()


def _digest(summary) -> str:
    # json.dumps writes floats with repr(), which round-trips IEEE doubles
    # exactly, so equal digests mean bit-identical results.
    return hashlib.sha256(
        json.dumps(summary, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_results_match_original_path(case):
    golden = json.loads(GOLDEN_PATH.read_text())["digests"]
    assert set(golden) == set(CASES)
    assert _digest(CASES[case]()) == golden[case]


# ------------------------------------------------------ pacing-loop behaviour
def test_pace_tick_chain_halts_after_completion():
    """The pacing loop stops re-posting ticks once a finite flow completes
    (a completed flow's ticks are pure no-ops) and counts the halt."""
    scenario, _link = _churn_scenario()
    for flow in scenario.flows:
        sender = flow.sender
        assert sender.pace_ticks > 0
        assert sender.pace_halts == 1
        assert sender.completion_time is not None
    # The 40 kB flow finishes in well under a second; had its tick chain
    # kept idle-polling it would approach a full horizon of ticks.
    small = scenario.flows[0].sender
    assert small.pace_ticks < 0.5 * (6.0 / IDLE_PACING_POLL)


def test_ack_clocked_senders_report_zero_pace_counters():
    scenario = Scenario()
    link = scenario.add_rate_link(12e6, name="bottleneck")
    flow = scenario.add_flow(make_cc("cubic"), [link], rtt=0.05)
    scenario.run(1.0)
    assert flow.sender.packets_sent > 0
    assert flow.sender.pace_ticks == 0
    assert flow.sender.pace_halts == 0


def _regenerate(commit: str) -> None:
    digests = {case: _digest(CASES[case]()) for case in sorted(CASES)}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({
        "description": "sha256 of each scenario's full result summary "
                       "(json.dumps, sort_keys); regenerate only for "
                       "intentional semantics changes",
        "generated_at_commit": commit,
        "digests": digests,
    }, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(digests)} digests)")


if __name__ == "__main__":
    import subprocess
    import sys
    if "--regenerate" in sys.argv:
        _regenerate(subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, cwd=Path(__file__).parent).stdout.strip() or "unknown")
    else:
        print(__doc__)


# ------------------------------------------------------ numpy stays outside
def test_event_loop_makes_no_numpy_calls():
    """numpy is for set-up (trace synthesis, workload draws) and for analysis
    after the run; at per-packet call rates a numpy scalar or a
    ``searchsorted`` costs several times the Python arithmetic it replaces.
    Guarded by behaviour rather than by an import list (``endpoints``
    legitimately imports ``monitor``, whose numpy runs after the run): no
    call into numpy between entering and leaving ``EventLoop.run`` on an
    ABC + Cubic metro cell."""
    run_code = EventLoop.run.__code__
    inside = runs = 0
    numpy_calls = collections.Counter()

    def profiler(frame, event, arg):
        nonlocal inside, runs
        if event == "c_call":
            if inside and (
                    (getattr(arg, "__module__", None) or "").startswith("numpy")
                    or isinstance(getattr(arg, "__self__", None),
                                  (np.ndarray, np.generic))):
                numpy_calls[arg.__name__] += 1
        elif frame.f_code is run_code:
            if event == "call":
                inside += 1
                runs += 1
            elif event == "return":
                inside -= 1
        elif (event == "call" and inside
              and frame.f_globals.get("__name__", "").startswith("numpy")):
            numpy_calls[frame.f_code.co_name] += 1

    trace = lte_showcase_trace(duration=1.0, seed=5)
    sys.setprofile(profiler)
    try:
        cell = metro_cell("abc:0.5,cubic:0.5", "guard", trace, seed=1,
                          duration=1.0)
    finally:
        sys.setprofile(None)
    assert runs == 1 and inside == 0
    assert cell["throughput_bps"] > 1e6 and "abc" in cell["schemes"]
    assert not numpy_calls


def _abc_cubic_cell(monkeypatch):
    """One simulated second of an ABC + Cubic ``metro_cell``: the result dict
    and the ``Scenario`` it ran."""
    scenarios = []
    run = Scenario.run

    def recording_run(self, duration):
        scenarios.append(self)
        return run(self, duration)

    monkeypatch.setattr(Scenario, "run", recording_run)
    cell = metro_cell("abc:0.5,cubic:0.5", "guard",
                      lte_showcase_trace(duration=1.0, seed=5), seed=1,
                      duration=1.0)
    (scenario,) = scenarios
    return cell, scenario


# ------------------------------------------------- one object per round trip
def test_one_packet_object_per_transmission(monkeypatch):
    """A transmission allocates one ``Packet`` and nothing else: the receiver
    turns the delivered object around as its own ACK and the sender reads
    the echo off it.  Guarded by behaviour: on an ABC + Cubic metro cell the
    constructions equal the packets the senders sent, none of them made by
    the two receive handlers — a freelist would construct fewer, an ACK copy
    more — and the packet module has no second packet class to copy into."""
    import inspect

    from repro.simulator import packet as packet_module
    from repro.simulator.endpoints import Receiver, Sender

    assert {name for name, value in vars(packet_module).items()
            if inspect.isclass(value)
            and value.__module__ == packet_module.__name__} == {
                "ECN", "Packet", "AckFeedback"}

    receive_handlers = (Receiver.receive_at.__code__, Sender.receive.__code__)
    built = collections.Counter()
    init = packet_module.Packet.__init__

    def counting_init(self, *args, **kwargs):
        built["total"] += 1
        if sys._getframe(1).f_code in receive_handlers:
            built["by_a_receive_handler"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(packet_module.Packet, "__init__", counting_init)
    cell, scenario = _abc_cubic_cell(monkeypatch)
    sent = sum(flow.sender.packets_sent for flow in scenario.flows)
    delivered = sum(flow.receiver.packets_received for flow in scenario.flows)
    assert {"abc", "cubic"} <= set(cell["schemes"])
    assert sent > delivered > 100
    assert built["total"] == sent
    assert not built["by_a_receive_handler"]


# --------------------------------------------------- derived, not stored
def test_counters_are_derived_from_the_series_that_hold_them(monkeypatch):
    """Totals and end points that a sample list already holds are read off
    it, not counted per packet next to it: same numbers, no second store."""
    from repro.simulator.endpoints import Receiver
    from repro.simulator.monitor import FlowStats
    from repro.simulator.packet import ACCEL, Packet

    abc_dequeued = 0
    dequeue = ABCRouterQdisc.dequeue

    def counting_dequeue(self, now):
        nonlocal abc_dequeued
        packet = dequeue(self, now)
        if packet is not None and packet.abc_capable:
            abc_dequeued += 1
        return packet

    monkeypatch.setattr(ABCRouterQdisc, "dequeue", counting_dequeue)
    cell, scenario = _abc_cubic_cell(monkeypatch)
    assert {"abc", "cubic"} <= set(cell["schemes"])
    idle = FlowStats(99)
    assert (idle.bytes_received, idle.last_recv_time) == (0, None)
    for flow in scenario.flows:
        stats = flow.stats
        assert len(stats) > 0
        assert stats.bytes_received == sum(stats.sizes)
        assert stats.last_recv_time == stats.recv_times[-1]
        assert flow.receiver.packets_received == len(stats)
        for name in ("bytes_received", "last_recv_time"):
            with pytest.raises(AttributeError):
                setattr(stats, name, 0)
        with pytest.raises(AttributeError):
            flow.receiver.packets_received = 0

    (link,) = scenario.links
    router = link.qdisc
    assert router.accel_marked == router.marker.accel_count > 0
    assert router.brake_marked == router.marker.brake_count > 0
    assert router.accel_marked + router.brake_marked == abc_dequeued
    assert abc_dequeued < link.delivered_packets   # Cubic's pass unmarked
    for name in ("accel_marked", "brake_marked"):
        with pytest.raises(AttributeError):
            setattr(router, name, 0)

    # Receiver.receive_at is FlowStats' one writer: one sample per packet,
    # read off the packet before it turns around as its own ACK.
    receiver = Receiver(EventLoop())
    expected = []
    for seq, now in enumerate((0.25, 0.5, 0.5, 1.75)):
        packet = Packet(flow_id=0, seq=seq, size=1000 + seq, ecn=ACCEL,
                        sent_time=now - 0.1)
        packet.total_queuing_delay = 0.01 * seq
        expected.append((now, packet.sent_time, packet.size,
                         packet.total_queuing_delay))
        receiver.receive_at(packet, now)
        assert packet.is_ack and packet.size == receiver.ack_size
    stats = receiver.stats_for(0)
    assert list(zip(stats.recv_times, stats.sent_times, stats.sizes,
                    stats.queuing_delays)) == expected
    assert stats.bytes_received == 4006 and receiver.packets_received == 4


# ------------------------------------------------ calls per delivered packet
#: Python-level calls inside ``Scenario.run`` per delivered packet, by case.
#: A count, so deterministic and machine-independent (CPython 3.11;
#: comprehension inlining in 3.12 only lowers it).  Each ceiling sits between
#: two measurements:
#:
#: * ``golden-trace-scenario`` (ABC + Cubic, 3 s, ACK-clocked): 31.3 before
#:   the RTO deadline became a function and Cubic got one flat per-ACK body,
#:   24.8 after;
#: * ``paced-bbr-trace`` (one BBR flow, paced): 47.2, against 53.1 when
#:   BBR's ``on_ack`` also returns its window — five calls per ACK
#:   (``window → cwnd → _bdp_packets → two WindowedMinMax.get``) for a value
#:   the pacing loop never reads.
PYTHON_CALLS_PER_PACKET_CEILING = {
    "golden-trace-scenario": 27.0,
    "paced-bbr-trace": 49.0,
}


def _calls_per_delivered_packet(monkeypatch, case) -> float:
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    run = Scenario.run

    def profiled_run(self, duration):
        previous = sys.getprofile()
        sys.setprofile(profiler)
        try:
            return run(self, duration)
        finally:
            sys.setprofile(previous)

    monkeypatch.setattr(Scenario, "run", profiled_run)
    summary = CASES[case]()
    delivered = sum(len(flow["recv_times"]) for flow in summary["flows"])
    assert delivered > 1000
    return calls / delivered


def test_python_calls_per_delivered_packet_stay_under_the_ceiling(monkeypatch):
    case = "golden-trace-scenario"
    assert (_calls_per_delivered_packet(monkeypatch, case)
            < PYTHON_CALLS_PER_PACKET_CEILING[case])


def test_paced_sender_calls_per_delivered_packet_stay_under_the_ceiling(
        monkeypatch):
    case = "paced-bbr-trace"
    assert (_calls_per_delivered_packet(monkeypatch, case)
            < PYTHON_CALLS_PER_PACKET_CEILING[case])
