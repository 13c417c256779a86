"""Tests for the scenario builder and the monitors."""

import numpy as np
import pytest

from repro.cc import make_cc
from repro.cc.cubic import Cubic
from repro.aqm import DropTailQdisc
from repro.core.router import ABCRouterQdisc
from repro.core.sender import ABCWindowControl
from repro.simulator.monitor import FlowStats, LinkMonitor
from repro.simulator.packet import Packet
from repro.simulator.scenario import Scenario
from repro.simulator.traffic import FixedSizeSource


# ------------------------------------------------------------ FlowStats
def mk_record(stats, recv, sent, size=1500, queuing=0.0):
    pkt = Packet(flow_id=stats.flow_id, seq=0, size=size, sent_time=sent)
    pkt.total_queuing_delay = queuing
    stats.record(pkt, recv)


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


# ------------------------------------------------------------ LinkMonitor
def test_link_monitor_counters():
    mon = LinkMonitor("l")
    for i in range(10):
        mon.record_departure(i * 0.1, Packet(flow_id=0, seq=i, size=1000))
    mon.record_drop(0.5, Packet(flow_id=0, seq=99))
    mon.opportunity_bytes += 1500    # what OpportunityLink does per opportunity
    assert mon.delivered_bytes(0.0, 1.0) == 10_000
    assert mon.delivered_bytes(0.0, 0.35) == 4000
    assert mon.throughput_bps(0.0, 1.0) == pytest.approx(80_000)
    assert mon.drops() == 1
    assert mon.opportunity_bytes == 1500
    times, series = mon.throughput_timeseries(bin_size=0.5)
    assert len(times) == 2


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
