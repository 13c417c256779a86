"""Tests for the explicit-feedback baselines: XCP, XCPw, RCP, VCP."""

import math

import pytest

from repro.explicit import vcp
from repro.explicit.rcp import RCPRouterQdisc, RCPSender
from repro.explicit.vcp import VCPRouterQdisc, VCPSender
from repro.explicit.xcp import XCPRouterQdisc, XCPSender
from repro.explicit.vcp import HIGH_LOAD, LOW_LOAD, OVERLOAD
from repro.simulator.link import ConstantRate
from repro.simulator.packet import MTU, AckFeedback, Packet
from tests.conftest import run_single_flow, with_cwnd


def ack_with_meta(meta, now=1.0, rtt=0.1):
    return AckFeedback(now=now, rtt=rtt, bytes_acked=MTU, accel=True, ece=False,
                       packets_in_flight=10, meta=meta)


class FakeLink:
    """Gives router qdiscs a fixed capacity without a full simulator."""

    def __init__(self, rate_bps):
        self.rate = rate_bps
        self.env = type("E", (), {"now": 0.0})()

    def capacity_bps(self, now):
        return self.rate


# ------------------------------------------------------------ XCP sender
def test_xcp_sender_stamps_congestion_header():
    cc = with_cwnd(XCPSender(), 4.0)
    meta = cc.packet_meta(0.0)
    assert set(meta) == {"xcp_rtt", "xcp_cwnd_bytes", "xcp_feedback_bytes"}
    assert meta["xcp_cwnd_bytes"] == pytest.approx(4.0 * MTU)


def test_xcp_sender_applies_positive_feedback():
    cc = with_cwnd(XCPSender(), 4.0)
    cc.on_ack(ack_with_meta({"xcp_feedback_bytes": 3 * MTU}))
    assert cc.cwnd() == pytest.approx(7.0)


def test_xcp_sender_applies_negative_feedback():
    cc = with_cwnd(XCPSender(), 10.0)
    cc.on_ack(ack_with_meta({"xcp_feedback_bytes": -4 * MTU}))
    assert cc.cwnd() == pytest.approx(6.0)


def test_xcp_sender_ignores_missing_feedback():
    cc = with_cwnd(XCPSender(), 10.0)
    cc.on_ack(ack_with_meta({}))
    assert cc.cwnd() == pytest.approx(10.0)


def test_xcp_sender_loss_and_timeout():
    cc = with_cwnd(XCPSender(), 10.0)
    cc.on_loss(1.0)
    assert cc.cwnd() == pytest.approx(5.0)
    cc.on_timeout(2.0)
    assert cc.cwnd() == cc.min_cwnd()


# ------------------------------------------------------------ XCP router
def test_xcp_router_reduces_feedback_never_increases():
    router = XCPRouterQdisc()
    router.attach(FakeLink(10e6))
    pkt = Packet(flow_id=0, seq=0,
                 meta={"xcp_rtt": 0.1, "xcp_cwnd_bytes": 10 * MTU,
                       "xcp_feedback_bytes": math.inf})
    router.enqueue(pkt, 0.0)
    assert pkt.meta["xcp_feedback_bytes"] < math.inf


def test_xcp_router_negative_feedback_when_queue_large():
    router = XCPRouterQdisc(wireless=True)
    router.attach(FakeLink(5e6))
    now = 0.0
    # Stuff the queue so the persistent-queue term dominates.
    last = None
    for i in range(200):
        last = Packet(flow_id=0, seq=i,
                      meta={"xcp_rtt": 0.1, "xcp_cwnd_bytes": 100 * MTU,
                            "xcp_feedback_bytes": math.inf})
        router.enqueue(last, now)
        now += 0.001
    assert last.meta["xcp_feedback_bytes"] < 0


def test_xcp_router_ignores_non_xcp_packets():
    router = XCPRouterQdisc()
    router.attach(FakeLink(10e6))
    pkt = Packet(flow_id=0, seq=0)
    router.enqueue(pkt, 0.0)
    assert "xcp_feedback_bytes" not in pkt.meta


def test_xcpw_converges_on_constant_link():
    result, link, flow = run_single_flow(XCPSender(), XCPRouterQdisc(wireless=True),
                                         12e6, duration=10.0)
    assert result.link_utilization(link, t0=2.0) > 0.8
    assert flow.stats.delay_percentile(95, kind="queuing") < 0.15


def test_xcp_converges_on_constant_link():
    result, link, flow = run_single_flow(XCPSender(), XCPRouterQdisc(), 12e6,
                                         duration=10.0)
    assert result.link_utilization(link, t0=2.0) > 0.75


# ------------------------------------------------------------ RCP
def test_rcp_sender_is_rate_based():
    assert RCPSender.needs_pacing
    cc = RCPSender()
    assert cc.pacing_rate() == 1e6
    assert cc.cwnd() >= 4.0


def test_rcp_sender_adopts_advertised_rate():
    cc = RCPSender()
    cc.on_ack(ack_with_meta({"rcp_rate_bps": 5e6}))
    assert cc.pacing_rate() == pytest.approx(5e6)


def test_rcp_sender_ignores_unstamped_acks():
    cc = RCPSender()
    cc.on_ack(ack_with_meta({"rcp_rate_bps": math.inf}))
    assert cc.pacing_rate() == pytest.approx(1e6)


def test_rcp_router_stamps_minimum_rate():
    router = RCPRouterQdisc()
    router.rate_bps = 3e6
    router.attach(FakeLink(10e6))
    pkt = Packet(flow_id=0, seq=0, meta={"rcp_rtt": 0.1, "rcp_rate_bps": math.inf})
    router.enqueue(pkt, 0.0)
    assert pkt.meta["rcp_rate_bps"] == pytest.approx(3e6)


def test_rcp_router_rate_grows_toward_capacity():
    router = RCPRouterQdisc()
    router.attach(FakeLink(10e6))
    now = 0.0
    for i in range(500):
        pkt = Packet(flow_id=0, seq=i, meta={"rcp_rtt": 0.1, "rcp_rate_bps": math.inf})
        router.enqueue(pkt, now)
        router.dequeue(now)
        now += 0.01
    assert router.rate_bps > 5e6


def test_rcp_converges_on_constant_link():
    result, link, flow = run_single_flow(RCPSender(), RCPRouterQdisc(), 10e6,
                                         duration=12.0)
    assert result.link_utilization(link, t0=4.0) > 0.8


# ------------------------------------------------------------ VCP
def test_vcp_sender_regions():
    cc = with_cwnd(VCPSender(), 10.0)
    w0 = cc.cwnd()
    cc.on_ack(ack_with_meta({"vcp_region": LOW_LOAD}))
    assert cc.cwnd() > w0                       # MI
    w1 = cc.cwnd()
    cc.on_ack(ack_with_meta({"vcp_region": HIGH_LOAD}))
    assert cc.cwnd() > w1                       # AI (small)
    cc.on_ack(ack_with_meta({"vcp_region": OVERLOAD}, now=2.0))
    assert cc.cwnd() < w1                       # MD


def test_vcp_md_at_most_once_per_rtt():
    cc = with_cwnd(VCPSender(), 32.0)
    cc.on_ack(ack_with_meta({"vcp_region": OVERLOAD}, now=1.0))
    w = cc.cwnd()
    cc.on_ack(ack_with_meta({"vcp_region": OVERLOAD}, now=1.01))
    assert cc.cwnd() == pytest.approx(w)


def test_vcp_mi_is_slow_doubling_takes_many_rtts():
    """§7: VCP can take ~12 RTTs to double its rate (0.0625 MI gain)."""
    cc = with_cwnd(VCPSender(), 10.0)
    rtts = 0
    now = 0.0
    while cc.cwnd() < 20.0 and rtts < 30:
        for _ in range(int(cc.cwnd())):
            cc.on_ack(ack_with_meta({"vcp_region": LOW_LOAD}, now=now))
            now += 0.001
        rtts += 1
    assert 8 <= rtts <= 16


def test_vcp_router_load_factor_regions(monkeypatch):
    monkeypatch.setattr(vcp, "VCP_INTERVAL", 0.1)
    router = VCPRouterQdisc()
    router.attach(FakeLink(10e6))
    now = 0.0
    # Offer ~5 Mbit/s -> low load.
    for i in range(200):
        router.enqueue(Packet(flow_id=0, seq=i), now)
        router.dequeue(now)
        now += 0.0024
    assert router.region == LOW_LOAD
    # Now offer well above capacity without draining -> overload.
    for i in range(200, 900):
        router.enqueue(Packet(flow_id=0, seq=i), now)
        now += 0.0005
    assert router.region == OVERLOAD


def test_vcp_router_stamps_worst_region():
    router = VCPRouterQdisc()
    router.attach(FakeLink(10e6))
    router.region = HIGH_LOAD
    pkt = Packet(flow_id=0, seq=0, meta={"vcp_region": LOW_LOAD})
    router.enqueue(pkt, 0.0)
    assert pkt.meta["vcp_region"] == HIGH_LOAD
    pkt2 = Packet(flow_id=0, seq=1, meta={"vcp_region": OVERLOAD})
    router.enqueue(pkt2, 0.0)
    assert pkt2.meta["vcp_region"] == OVERLOAD


def test_vcp_converges_on_constant_link():
    result, link, flow = run_single_flow(VCPSender(), VCPRouterQdisc(), 10e6,
                                         duration=15.0)
    assert result.link_utilization(link, t0=5.0) > 0.6
