"""Tests for the scenario builder, its one sampler and the delivery records."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.cc import make_cc
from repro.cc.cubic import Cubic
from repro.aqm import DropTailQdisc
from repro.core.router import ABCRouterQdisc
from repro.core.sender import ABCWindowControl
from repro.simulator.endpoints import Receiver
from repro.simulator.engine import EventLoop
from repro.simulator.link import ConstantRate, RateLink
from repro.simulator.monitor import FlowStats
from repro.simulator.packet import Packet
from repro.simulator.scenario import Scenario
from repro.simulator.traffic import FixedSizeSource


# ------------------------------------------------------------ FlowStats
def mk_record(stats, recv, sent, size=1500, queuing=0.0):
    """Deliver one packet into ``stats`` through its one writer, a receiver."""
    pkt = Packet(flow_id=stats.flow_id, seq=0, size=size, sent_time=sent)
    pkt.total_queuing_delay = queuing
    receiver = Receiver(EventLoop())
    receiver.flow_stats[stats.flow_id] = stats
    receiver.receive_at(pkt, recv)


def test_flow_stats_throughput():
    stats = FlowStats(flow_id=0)
    for i in range(10):
        mk_record(stats, recv=i * 0.1, sent=i * 0.1 - 0.05)
    # 15000 bytes over 1 s window
    assert stats.throughput_bps(0.0, 1.0) == pytest.approx(15_000 * 8)


def test_flow_stats_delay_percentiles():
    stats = FlowStats(flow_id=0)
    for i in range(100):
        mk_record(stats, recv=i * 0.01 + 0.05, sent=i * 0.01, queuing=0.02)
    assert stats.delay_percentile(95) == pytest.approx(0.05, abs=1e-6)
    assert stats.mean_delay(kind="queuing") == pytest.approx(0.02)
    with pytest.raises(ValueError):
        stats.delays(kind="bogus")


def test_flow_stats_empty():
    stats = FlowStats(flow_id=0)
    assert stats.throughput_bps(0, 1) == 0.0
    assert stats.delay_percentile(95) == 0.0
    assert stats.mean_delay() == 0.0
    t, v = stats.throughput_timeseries()
    assert t.size == 0 and v.size == 0


def test_flow_stats_timeseries_bins():
    stats = FlowStats(flow_id=0)
    for i in range(20):
        mk_record(stats, recv=i * 0.1, sent=i * 0.1, queuing=0.01 * (i % 2))
    times, tput = stats.throughput_timeseries(bin_size=0.5, t1=2.0)
    assert len(times) == 4
    assert np.all(tput >= 0)
    qt, qd = stats.queuing_delay_timeseries(bin_size=0.5)
    assert len(qt) == len(qd)


# ------------------------------------------------------------ link record
def test_link_records_its_own_departures():
    env = EventLoop()
    link = RateLink(env, ConstantRate(80_000.0),
                    qdisc=DropTailQdisc(buffer_packets=3))
    for i in range(5):  # 0.1 s per packet: one in transmission, three queued
        link.send(Packet(flow_id=0, seq=i, size=1000))
    env.run(until=1.0)
    assert link.departure_times == pytest.approx([0.1, 0.2, 0.3, 0.4])
    assert link.departure_bytes == [1000] * 4
    assert (link.delivered_packets, link.delivered_bytes) == (4, 4000)
    assert link.delivered_bits(0.0, 1.0) == 32_000.0
    assert link.delivered_bits(0.0, 0.25) == 16_000.0
    assert link.delivered_bits(0.15, 0.35) == 16_000.0
    # Both window edges are inclusive, as for FlowStats.throughput_bps.
    t = link.departure_times
    assert link.delivered_bits(t[1], t[2]) == 16_000.0
    assert link.dropped_packets == 1 and link.arrived_packets == 5
    with pytest.raises(AttributeError):
        link.delivered_packets = 0  # derived from the record, not stored


def test_link_drops_and_utilization_read_the_link():
    sc = Scenario()
    link = sc.add_rate_link(2e6, qdisc=DropTailQdisc(5), loss_rate=0.005,
                            loss_seed=3)
    sc.add_flow(Cubic(), [link], rtt=0.1)
    res = sc.run(3.0)
    assert link.dropped_packets > 0 and link.random_loss_packets > 0
    assert res.link_drops(link) == (link.dropped_packets
                                    + link.random_loss_packets)
    assert res.link_utilization(link) == min(
        link.delivered_bits(0.0, 3.0) / link.offered_bits(0.0, 3.0), 1.0)


# ------------------------------------------------------------ Scenario.every
def _cubic_scenario():
    sc = Scenario()
    link = sc.add_rate_link(10e6, name="l")
    sc.add_flow(Cubic(), [link], rtt=0.05)
    return sc


def _old_sampler_times(interval, duration):
    """When the removed self-rescheduling samplers fired: at 0, then
    ``now + interval`` for as long as that is ``<= duration``."""
    times, now = [0.0], 0.0
    while now + interval <= duration:
        now = now + interval
        times.append(now)
    return times


@pytest.mark.parametrize("interval,duration",
                         [(0.05, 1.0), (0.1, 0.3), (0.25, 2.0), (0.3, 1.0),
                          (5.0, 1.0)])
def test_every_fires_at_the_old_sampler_times(interval, duration):
    sc, seen = _cubic_scenario(), []
    sc.every(interval, seen.append)
    sc.run(duration)
    assert seen == _old_sampler_times(interval, duration)
    assert all(t <= duration for t in seen)
    assert sc.env.pending == 0
    sc.env.run(until=10 * duration)  # nothing is left to fire after the run
    assert seen == _old_sampler_times(interval, duration)


def test_nothing_is_sampled_unless_a_probe_is_registered():
    plain, probed, seen = _cubic_scenario(), _cubic_scenario(), []
    with pytest.raises(ValueError):
        probed.every(0.0, seen.append)
    probed.every(0.05, seen.append)
    plain.run(1.0)
    probed.run(1.0)
    assert seen == _old_sampler_times(0.05, 1.0) and len(seen) == 20
    assert (probed.env.events_processed
            == plain.env.events_processed + len(seen))


def test_a_read_only_probe_changes_no_result():
    def run(probe):
        sc = Scenario()
        link = sc.add_rate_link(8e6, qdisc=DropTailQdisc(50), name="l")
        flow = sc.add_flow(Cubic(), [link], rtt=0.05)
        if probe:
            sc.every(0.01, lambda now: (flow.cc.cwnd(),
                                        link.qdisc.backlog_packets))
        sc.run(2.0)
        return (flow.stats.recv_times, flow.stats.queuing_delays,
                link.departure_times)

    assert run(probe=True) == run(probe=False)


#: Where a hand-rolled sampler or injector would go.  Code above the
#: simulator reads (or drives) a run through ``Scenario.every``.
_NO_POSTS = ("src/repro/experiments", "src/repro/fuzz", "src/repro/metro",
             "src/repro/obs", "tools")


def test_only_the_simulator_posts_events():
    root = Path(__file__).resolve().parents[1]
    call = re.compile(r"\b(post|post_at)\(")
    offenders = [f"{path.relative_to(root)}:{number}: {line.strip()}"
                 for top in _NO_POSTS
                 for path in sorted((root / top).rglob("*.py"))
                 for number, line in enumerate(
                     path.read_text().splitlines(), 1)
                 if call.search(line)]
    assert not offenders, "\n".join(offenders)


# ------------------------------------------------------------ Scenario wiring
def test_scenario_runs_single_flow(short_trace):
    sc = Scenario()
    link = sc.add_cellular_link(short_trace, qdisc=DropTailQdisc(250), name="cell")
    flow = sc.add_flow(Cubic(), [link], rtt=0.1)
    res = sc.run(5.0)
    assert res.flow_throughput_bps(flow) > 1e6
    assert 0.0 < res.link_utilization(link) <= 1.0
    assert res.flow_delay_p95_ms(flow) > 50.0  # at least the propagation delay


def test_scenario_validation():
    sc = Scenario()
    link = sc.add_rate_link(1e6, name="l")
    with pytest.raises(ValueError):
        sc.add_flow(Cubic(), [], rtt=0.1)
    with pytest.raises(ValueError):
        sc.add_flow(Cubic(), [link], rtt=-1.0)
    with pytest.raises(ValueError):
        sc.run(0.0)


def test_scenario_flows_get_distinct_ids():
    sc = Scenario()
    link = sc.add_rate_link(10e6, name="l")
    f1 = sc.add_flow(Cubic(), [link], rtt=0.1)
    f2 = sc.add_flow(Cubic(), [link], rtt=0.1)
    assert f1.flow_id != f2.flow_id


def test_scenario_multi_hop_path():
    sc = Scenario()
    l1 = sc.add_rate_link(10e6, qdisc=DropTailQdisc(100), name="hop1")
    l2 = sc.add_rate_link(5e6, qdisc=DropTailQdisc(100), name="hop2")
    flow = sc.add_flow(Cubic(), [l1, l2], rtt=0.1)
    res = sc.run(5.0)
    # The second hop is the bottleneck and should be nearly saturated.
    assert res.link_utilization(l2, t0=1.0) > 0.8
    assert res.link_utilization(l1, t0=1.0) < 0.7
    assert res.flow_throughput_bps(flow) < 6e6


def test_scenario_rtt_respected():
    sc = Scenario()
    link = sc.add_rate_link(50e6, name="fast")
    flow = sc.add_flow(Cubic(initial_cwnd=2.0), [link], rtt=0.2)
    sc.run(2.0)
    assert flow.sender.rtt.minimum() == pytest.approx(0.2, abs=0.01)


def test_scenario_two_flows_share_link():
    sc = Scenario()
    link = sc.add_rate_link(10e6, qdisc=DropTailQdisc(250), name="l")
    f1 = sc.add_flow(Cubic(), [link], rtt=0.1)
    f2 = sc.add_flow(Cubic(), [link], rtt=0.1, start_time=1.0)
    res = sc.run(10.0)
    total = res.flow_throughput_bps(f1, 2.0) + res.flow_throughput_bps(f2, 2.0)
    assert total == pytest.approx(10e6, rel=0.15)


def test_scenario_summary_keys(short_trace):
    sc = Scenario()
    link = sc.add_cellular_link(short_trace, qdisc=ABCRouterQdisc(), name="cell")
    sc.add_flow(ABCWindowControl(), [link], rtt=0.1)
    res = sc.run(4.0)
    summary = res.summary(link)
    assert set(summary) == {"throughput_bps", "utilization", "delay_p95_ms",
                            "delay_mean_ms", "queuing_p95_ms", "drops"}


def test_scenario_short_flow_completes():
    sc = Scenario()
    link = sc.add_rate_link(10e6, name="l")
    flow = sc.add_flow(Cubic(), [link], rtt=0.05,
                       source=FixedSizeSource(30_000))
    sc.run(3.0)
    assert flow.sender.completion_time is not None
    assert flow.stats.bytes_received == 30_000


def test_scenario_registry_schemes_run(short_trace):
    """Every registered sender scheme must at least move data end to end."""
    from repro.cc import available_schemes
    for name in available_schemes():
        sc = Scenario()
        link = sc.add_cellular_link(short_trace, qdisc=DropTailQdisc(250),
                                    name="cell")
        flow = sc.add_flow(make_cc(name), [link], rtt=0.1)
        res = sc.run(3.0)
        assert res.flow_throughput_bps(flow) > 1e5, name
