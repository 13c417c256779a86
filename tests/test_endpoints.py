"""Tests for the generic sender/receiver transport machinery."""

import pytest

from repro.cc.base import AIMD
from repro.cc.cubic import Cubic
from repro.simulator.endpoints import DelayHop, Receiver, Sender, Sink
from repro.simulator.engine import EventLoop
from repro.simulator.link import ConstantRate, RateLink
from repro.simulator.packet import Ack, ECN, Packet
from repro.simulator.qdisc import FifoQdisc
from repro.simulator.scenario import Scenario
from repro.simulator.traffic import FixedSizeSource, RateLimitedSource
from repro.core.sender import ABCWindowControl


def build_loop(cc, rate_bps=10e6, buffer_packets=100, rtt=0.1,
               source=None, duration=5.0):
    """Minimal sender → link → receiver → sender loop without Scenario."""
    env = EventLoop()
    sender = Sender(env, flow_id=0, cc=cc, source=source)
    receiver = Receiver(env)
    link = RateLink(env, ConstantRate(rate_bps),
                    qdisc=FifoQdisc(buffer_packets=buffer_packets), dst=receiver)
    fwd = DelayHop(env, rtt / 2.0, dst=link)
    back = DelayHop(env, rtt / 2.0, dst=sender)
    sender.connect(fwd)
    receiver.connect(back)
    sender.start()
    env.run(until=duration)
    return env, sender, receiver, link


# ------------------------------------------------------------ basics
def test_sender_is_window_limited():
    env, sender, receiver, _ = build_loop(AIMD(initial_cwnd=2.0, ssthresh=2.0),
                                          duration=0.05)
    # Only the initial window can be in flight before the first ACK (~RTT).
    assert sender.packets_sent == 2


def test_ack_clocking_sustains_flow():
    env, sender, receiver, _ = build_loop(AIMD(initial_cwnd=4.0, ssthresh=4.0),
                                          duration=2.0)
    assert receiver.packets_received > 20
    assert sender.acks_received > 20


def test_rtt_estimate_close_to_configured():
    env, sender, _, _ = build_loop(AIMD(initial_cwnd=2.0, ssthresh=2.0),
                                   rtt=0.08, duration=2.0)
    # Propagation 80 ms plus ~1.2 ms serialisation.
    assert sender.rtt.minimum() == pytest.approx(0.0812, abs=0.01)


def test_slow_start_grows_window():
    cc = AIMD(initial_cwnd=2.0)
    build_loop(cc, duration=1.0)
    assert cc.cwnd() > 10


def test_delivery_records_collected_per_flow():
    env, sender, receiver, _ = build_loop(AIMD(initial_cwnd=2.0), duration=1.0)
    stats = receiver.stats_for(0)
    assert stats.bytes_received == sum(r.size for r in stats.records)
    assert stats.records[0].one_way_delay > 0.0


def test_fixed_size_flow_completes():
    source = FixedSizeSource(total_bytes=15_000)
    env, sender, receiver, _ = build_loop(AIMD(initial_cwnd=4.0), source=source,
                                          duration=3.0)
    assert sender.completion_time is not None
    assert receiver.stats_for(0).bytes_received == 15_000


def test_application_limited_flow_paces_with_data_arrival():
    source = RateLimitedSource(rate_bps=1e6)
    env, sender, receiver, _ = build_loop(Cubic(), source=source, duration=3.0)
    achieved = receiver.stats_for(0).throughput_bps(0.5, 3.0)
    assert achieved == pytest.approx(1e6, rel=0.3)


# ------------------------------------------------------------ loss handling
def test_losses_detected_and_retransmitted():
    # Tiny buffer forces drops during slow start.
    env, sender, receiver, link = build_loop(Cubic(initial_cwnd=10.0),
                                             rate_bps=2e6, buffer_packets=5,
                                             duration=4.0)
    assert link.dropped_packets > 0
    assert sender.loss_events > 0
    assert sender.retransmissions > 0
    # All data eventually reaches the receiver in spite of the drops.
    assert receiver.packets_received > 100


def test_loss_events_bounded_by_once_per_window():
    env, sender, _, link = build_loop(Cubic(initial_cwnd=10.0), rate_bps=2e6,
                                      buffer_packets=5, duration=4.0)
    # Far fewer congestion events than individual drops.
    assert sender.loss_events < link.dropped_packets


def test_rto_fires_when_path_goes_dead():
    env = EventLoop()
    cc = AIMD(initial_cwnd=4.0)
    sender = Sender(env, flow_id=0, cc=cc)
    sender.connect(Sink())  # packets vanish; no ACKs ever return
    sender.start()
    env.run(until=5.0)
    assert sender.timeouts >= 1
    assert cc.cwnd() == cc.min_cwnd()


def test_rto_backoff_doubles():
    env = EventLoop()
    sender = Sender(env, flow_id=0, cc=AIMD(initial_cwnd=2.0))
    sender.connect(Sink())
    sender.start()
    env.run(until=10.0)
    assert sender.timeouts >= 2
    assert sender._rto_backoff > 1.0


def test_stale_ack_ignored():
    env = EventLoop()
    sender = Sender(env, flow_id=0, cc=AIMD(initial_cwnd=2.0))
    sender.connect(Sink())
    sender.start()
    env.run(until=0.01)
    before = sender.bytes_acked
    sender.receive(Ack(flow_id=0, seq=999))
    assert sender.bytes_acked == before


# ------------------------------------------------------------ receiver echo
def test_receiver_echoes_accelerate_bit():
    env = EventLoop()
    received = []

    class Capture:
        def receive(self, packet):
            received.append(packet)
        send = receive

    receiver = Receiver(env, egress=Capture())
    receiver.receive(Packet(flow_id=1, seq=0, ecn=ECN.ACCEL, sent_time=0.0))
    receiver.receive(Packet(flow_id=1, seq=1, ecn=ECN.BRAKE, sent_time=0.0))
    receiver.receive(Packet(flow_id=1, seq=2, ecn=ECN.CE, sent_time=0.0))
    env.run()
    assert [a.accel for a in received] == [True, False, False]
    assert [a.ece for a in received] == [False, False, True]


def test_receiver_echoes_scheme_meta():
    env = EventLoop()
    captured = []

    class Capture:
        def receive(self, packet):
            captured.append(packet)
        send = receive

    receiver = Receiver(env, egress=Capture())
    receiver.receive(Packet(flow_id=1, seq=0, meta={"xcp_feedback_bytes": 123.0}))
    env.run()
    assert captured[0].meta["xcp_feedback_bytes"] == 123.0


# ------------------------------------------------------------ ABC marking path
def test_abc_sender_marks_packets_accelerate():
    scenario = Scenario()
    link = scenario.add_rate_link(10e6, qdisc=FifoQdisc(), name="l")
    flow = scenario.add_flow(ABCWindowControl(), [link], rtt=0.05)
    scenario.run(0.2)
    # Without an ABC router on the path every delivered packet keeps its
    # accelerate mark, so every ACK reports accel=True.
    assert flow.cc.brake_acks == 0
    assert flow.cc.accel_acks > 0


def test_delay_hop_validation():
    with pytest.raises(ValueError):
        DelayHop(EventLoop(), delay=-1.0)


def test_sink_counts_traffic():
    sink = Sink()
    sink.receive(Packet(flow_id=0, seq=0, size=100))
    sink.receive(Ack(flow_id=0, seq=0))
    assert sink.packets == 2
    assert sink.bytes > 0
