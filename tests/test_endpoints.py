"""Tests for the generic sender/receiver transport machinery."""

import collections
import dataclasses
import math
import random

import pytest

from repro.cc.cubic import Cubic
from repro.simulator.endpoints import Receiver, Sender
from repro.simulator.engine import EventLoop
from repro.simulator.estimators import MAX_RTO, MIN_RTO
from repro.simulator.link import ConstantRate, RateLink
from repro.simulator.packet import ACK_SIZE, MTU, ECN, Packet
from repro.simulator.qdisc import FifoQdisc
from repro.simulator.scenario import Scenario
from repro.simulator.traffic import FixedSizeSource, RateLimitedSource
from repro.core.router import ABCRouterQdisc
from repro.core.sender import ABCWindowControl
from tests.conftest import AIMD, decoded_echo
from tests.reference import abc_paper, rfc6298


def build_loop(cc, rate_bps=10e6, buffer_packets=100, rtt=0.1,
               source=None, duration=5.0):
    """Minimal sender → link → receiver → sender loop without Scenario."""
    env = EventLoop()
    sender = Sender(env, flow_id=0, cc=cc, source=source)
    receiver = Receiver(env)
    link = RateLink(env, ConstantRate(rate_bps),
                    qdisc=FifoQdisc(buffer_packets=buffer_packets))
    link.connect(0, (0.0, receiver.receive, False))
    sender.connect((rtt / 2.0, link.send))
    receiver.connect((rtt / 2.0, sender.receive))
    sender.start()
    env.run(until=duration)
    return env, sender, receiver, link


class Capture:
    """A hop that keeps every packet it is handed."""

    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


class Sink:
    """A node that silently absorbs whatever it receives."""

    def __init__(self):
        self.packets = 0
        self.bytes = 0

    def receive(self, packet):
        self.packets += 1
        self.bytes += packet.size


class RecordingAIMD(AIMD):
    """AIMD that keeps a copy of every ``AckFeedback`` the sender hands it
    (the sender restamps one object per ACK)."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.feedbacks = []

    def on_ack(self, feedback):
        self.feedbacks.append(dataclasses.replace(feedback))
        return super().on_ack(feedback)


class ShrinkingWindow(AIMD):
    """An ACK-clocked CC whose window moves as it sends: every transmission
    is logged with the window it was sent under, then costs half a packet
    of window."""

    def __init__(self):
        super().__init__(initial_cwnd=6.0)
        self.sent = []

    def on_packet_sent(self, now, seq, size, in_flight):
        self.sent.append((seq, in_flight, self.window()))
        self._cwnd -= 0.5


def turn_around(packet):
    """``packet`` the way a receiver sends it back: as its own ACK."""
    capture = Capture()
    env = EventLoop()
    receiver = Receiver(env)
    receiver.connect((0.0, capture.receive))
    receiver.receive(packet)
    env.run()
    (ack,) = capture.packets
    assert ack is packet
    return ack


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
    assert sender.rtt.min_rtt == pytest.approx(0.0812, abs=0.01)


def test_slow_start_grows_window():
    cc = AIMD(initial_cwnd=2.0)
    build_loop(cc, duration=1.0)
    assert cc.cwnd() > 10


def test_delivery_records_collected_per_flow():
    env, sender, receiver, _ = build_loop(AIMD(initial_cwnd=2.0), duration=1.0)
    stats = receiver.stats_for(0)
    assert stats.bytes_received == sum(stats.sizes)
    assert stats.delays()[0] > 0.0


def test_window_moving_cc_is_called_per_packet_and_its_window_reread():
    cc = ShrinkingWindow()
    _, sender, _, _ = build_loop(cc, duration=0.01)   # before the first ACK
    # 6 → 5.5 → 5 → 4.5 → 4: the fourth packet fills the window as re-read.
    assert cc.sent == [(0, 1, 6.0), (1, 2, 5.5), (2, 3, 5.0), (3, 4, 4.5)]
    assert sender.packets_sent == 4

    cc = ShrinkingWindow()
    _, sender, _, _ = build_loop(cc, duration=2.0)
    assert len(cc.sent) == sender.packets_sent > 50
    assert all(in_flight <= window for _, in_flight, window in cc.sent)


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
    sender.connect((0.0, Sink().receive))  # no ACK ever returns
    sender.start()
    env.run(until=5.0)
    assert sender.timeouts >= 1
    assert cc.cwnd() == cc.min_cwnd()


def test_rto_backoff_doubles():
    env = EventLoop()
    sender = Sender(env, flow_id=0, cc=AIMD(initial_cwnd=2.0))
    sender.connect((0.0, Sink().receive))
    sender.start()
    env.run(until=10.0)
    assert sender.timeouts >= 2
    assert sender._rto_backoff > 1.0


def test_stale_ack_ignored():
    env = EventLoop()
    sender = Sender(env, flow_id=0, cc=AIMD(initial_cwnd=2.0))
    sender.connect((0.0, Sink().receive))
    sender.start()
    env.run(until=0.01)
    before = sender.bytes_acked
    in_flight = sender.in_flight
    sender.receive(turn_around(Packet(flow_id=0, seq=999)))
    assert sender.acks_received == 1
    assert sender.bytes_acked == before
    assert sender.in_flight == in_flight


def test_loss_scan_stops_at_first_packet_inside_reorder_window():
    """The lost set is a prefix of ``outstanding`` (insertion-ordered by send
    time), but not a seq-sorted one: retransmissions reuse their number."""
    cc = RecordingAIMD(initial_cwnd=8.0)
    sender = Sender(EventLoop(), flow_id=0, cc=cc)
    sender.next_seq = 10
    sender._recovery_end_seq = 4
    old_new = (5, MTU, 0.100, False)
    old_retransmitted = (2, 700, 0.101, True)
    young_new = (7, MTU, 0.150, False)
    young_retransmitted = (3, MTU, 0.151, True)  # low seq behind newer ones
    sender.outstanding = {info[0]: info for info in (
        old_new, old_retransmitted, young_new, young_retransmitted)}
    sender._latest_acked_sent_time = 0.110
    cwnd = cc.cwnd()
    sender._detect_losses(0.2)
    assert list(sender.retransmit_queue) == [old_new, old_retransmitted]
    assert list(sender.outstanding.values()) == [young_new,
                                                 young_retransmitted]
    # The newest lost seq is 5 (> the recovery point 4), not the prefix's
    # last entry 2: this is a fresh loss event.
    assert sender.loss_events == 1
    assert cc.cwnd() < cwnd
    # Nothing else is old enough: a second scan finds no loss.
    sender._detect_losses(0.2)
    assert len(sender.retransmit_queue) == 2 and sender.loss_events == 1


def test_ack_of_retransmitted_seq_gives_no_rtt_sample():
    """Karn: size, send time and the retransmission flag come from the
    sender's own record, never from the returning object — which may be the
    original transmission of a number that was RTO-retransmitted meanwhile."""
    env = EventLoop()
    cc = RecordingAIMD(initial_cwnd=2.0)
    sender = Sender(env, flow_id=0, cc=cc)
    path = Capture()  # holds the packets; no ACK returns by itself
    sender.connect((0.0, path.receive))
    sender.start()
    env.run(until=1.5)  # past the initial 1 s RTO
    assert sender.timeouts == 1 and sender.retransmissions >= 1
    original, retransmission = [p for p in path.packets if p.seq == 0]
    assert original.sent_time == 0.0
    assert sender.outstanding[0] == (0, MTU, retransmission.sent_time, True)
    sender.receive(turn_around(original))
    (feedback,) = cc.feedbacks
    assert feedback.rtt is None
    assert feedback.is_retransmission
    assert feedback.sent_time == retransmission.sent_time > 0.0
    assert sender.rtt.srtt is None


def test_restamped_feedback_carries_nothing_over_from_the_previous_ack():
    """The sender restamps one AckFeedback per ACK: a retransmission's ACK
    right after a fresh one must reach the CC with no RTT sample, the flag
    set and its own send time, size and in-band header dict."""
    env = EventLoop()
    cc = RecordingAIMD(initial_cwnd=3.0)
    sender = Sender(env, flow_id=0, cc=cc,
                    source=FixedSizeSource(2 * MTU + 700))
    path = Capture()
    sender.connect((0.0, path.receive))
    sender.start()
    env.run(until=0.05)
    first, second, last = path.packets
    assert (first.seq, last.seq, last.size) == (0, 2, 700)
    sender.receive(turn_around(last))          # fresh: an RTT sample
    while not sender.timeouts:                 # then an RTO
        env.run(until=env.now + 0.01)
    resent = path.packets[-1]
    assert resent.seq == 0 and resent.sent_time > 0.05
    sender.receive(turn_around(resent))        # the retransmission's ACK
    fresh, retransmitted = cc.feedbacks
    assert fresh.rtt == pytest.approx(0.05) and not fresh.is_retransmission
    assert (fresh.bytes_acked, fresh.sent_time) == (700, 0.0)
    assert fresh.meta is last.meta
    assert retransmitted.rtt is None and retransmitted.is_retransmission
    assert retransmitted.now == env.now
    assert (retransmitted.bytes_acked, retransmitted.sent_time) == (
        MTU, resent.sent_time)
    assert retransmitted.meta is resent.meta is not last.meta


def test_xcp_ack_hands_the_cc_that_packets_own_header():
    """An XCP ACK's ``feedback.meta`` is the header dict its data packet
    carried (and routers wrote into), not a copy or a neighbour's."""
    from repro.explicit.xcp import XCPSender

    class RecordingXCP(XCPSender):
        def __init__(self):
            super().__init__()
            self.metas = []

        def on_ack(self, feedback):
            self.metas.append(feedback.meta)
            return super().on_ack(feedback)

    env = EventLoop()
    cc = RecordingXCP()
    sender = Sender(env, flow_id=0, cc=cc)
    path = Capture()
    sender.connect((0.0, path.receive))
    sender.start()
    env.run(until=0.05)
    sent = list(path.packets)
    assert len(sent) == 2 and sent[0].meta is not sent[1].meta
    for packet in sent:
        packet.meta["xcp_feedback_bytes"] = 100.0 + packet.seq
        sender.receive(turn_around(packet))
    assert len(cc.metas) == 2
    assert all(meta is packet.meta for meta, packet in zip(cc.metas, sent))


# ------------------------------------------------------------ receiver echo
def test_receiver_echoes_accelerate_bit():
    env = EventLoop()
    capture = Capture()
    receiver = Receiver(env)
    receiver.connect((0.0, capture.receive))
    sent = [Packet(flow_id=1, seq=seq, ecn=codepoint, abc_capable=True)
            for seq, codepoint in enumerate(ECN)]
    for packet in sent:
        receiver.receive(packet)
    env.run()
    # Each delivered packet comes back as its own ACK: the same object,
    # flagged, carrying the codepoint it arrived with in ``echo``, and bare,
    # Not-ECT and unmarkable for whatever sits on the reverse path.
    assert all(a is p for a, p in zip(capture.packets, sent))
    assert [a.seq for a in capture.packets] == [0, 1, 2, 3]
    assert all(a.is_ack for a in capture.packets)
    assert [a.echo for a in capture.packets] == list(ECN)
    assert all(a.ecn is ECN.NOT_ECT for a in capture.packets)
    assert not any(a.abc_capable for a in capture.packets)
    assert all(a.size == ACK_SIZE for a in capture.packets)
    assert receiver.stats_for(1).bytes_received == 4 * MTU


@pytest.mark.parametrize("codepoint", list(ECN), ids=lambda c: c.name)
def test_sender_decodes_echo_like_the_section_5_1_2_table(codepoint):
    """The (accel, ece) pair the sender hands its cc is what §5.1.2's table
    says for the received codepoint."""
    assert decoded_echo(codepoint) == abc_paper.echo(codepoint)


def test_ack_crosses_a_reverse_abc_router_unmarked():
    """A hand-wired reverse link sees a bare ACK: ``ACK_SIZE`` bytes of
    backlog, Not-ECT, so a congested ABC router there cannot re-mark the
    echo, and the scheme's in-band fields ride through."""
    def congested_router_link(env, dst):
        link = RateLink(env, ConstantRate(100e3), qdisc=ABCRouterQdisc())
        link.connect(1, (0.0, dst.receive, False))
        return link

    def burst(size):
        return [Packet(flow_id=1, seq=seq, size=size, ecn=ECN.ACCEL,
                       abc_capable=True, meta={"xcp_feedback_bytes": 7.0 + seq})
                for seq in range(20)]

    env = EventLoop()
    capture = Capture()
    reverse = congested_router_link(env, capture)
    receiver = Receiver(env)
    receiver.connect((0.0, reverse.send))
    for packet in burst(MTU):
        receiver.receive(packet)
    env.run(until=0.0)
    # One ACK is in transmission, the other 19 wait, ACK_SIZE bytes each.
    assert reverse.qdisc.backlog_packets == 19
    assert reverse.qdisc.backlog_bytes == 19 * ACK_SIZE
    env.run()
    assert len(capture.packets) == 20
    marker = reverse.qdisc.marker
    assert marker.brake_count == 0 and marker.accel_count == 0
    assert all(a.is_ack and a.echo is ECN.ACCEL and a.ecn is ECN.NOT_ECT
               for a in capture.packets)
    assert ([a.meta["xcp_feedback_bytes"] for a in capture.packets]
            == [7.0 + seq for seq in range(20)])

    # Control: the same burst as 52-byte accelerate *data* is braked there,
    # so the zero above is the turn-around's doing, not an idle router.
    env = EventLoop()
    forward = congested_router_link(env, Capture())
    for packet in burst(52):
        forward.send(packet)
    env.run()
    assert forward.qdisc.marker.brake_count > 0


def test_miswired_endpoints_ignore_the_wrong_kind_of_packet():
    env = EventLoop()
    sender = Sender(env, flow_id=0, cc=AIMD(initial_cwnd=2.0))
    sender.connect((0.0, Sink().receive))
    sender.start()
    env.run(until=0.01)
    assert 0 in sender.outstanding
    sender.receive(Packet(flow_id=0, seq=0))  # data, not an ACK
    assert sender.acks_received == 0 and 0 in sender.outstanding

    capture = Capture()
    receiver = Receiver(env)
    receiver.connect((0.0, capture.receive))
    ack = turn_around(Packet(flow_id=0, seq=0))
    receiver.receive(ack)  # an ACK, not data
    assert receiver.packets_received == 0 and not capture.packets
    assert not receiver.flow_stats


def test_receiver_echoes_scheme_meta():
    ack = turn_around(Packet(flow_id=1, seq=0,
                             meta={"xcp_feedback_bytes": 123.0}))
    assert ack.meta["xcp_feedback_bytes"] == 123.0


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
        Receiver(EventLoop()).connect((-1.0, Sink().receive))


@pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
def test_delay_hop_rejects_non_finite_delay(delay):
    # The endpoints and links add a hop's delay to now unguarded.
    env = EventLoop()
    sink = Sink()
    link = RateLink(env, ConstantRate(1e6))
    for connect in (Sender(env, flow_id=0, cc=AIMD()).connect,
                    Receiver(env).connect,
                    lambda hop: link.connect(0, (*hop, False)),
                    lambda hop: link.connect(0, (*hop, True))):
        with pytest.raises(ValueError):
            connect((delay, sink.receive))
    assert not link.routes


def test_sink_counts_traffic():
    sink = Sink()
    sink.receive(Packet(flow_id=0, seq=0, size=100))
    sink.receive(turn_around(Packet(flow_id=0, seq=0)))
    assert sink.packets == 2
    assert sink.bytes == 100 + ACK_SIZE


# ------------------------------------------------------------ RTO instants
class TimeoutLog(AIMD):
    """AIMD that records when the sender reports a retransmission timeout."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.timeouts_at = []

    def on_timeout(self, now):
        self.timeouts_at.append(now)
        super().on_timeout(now)


def test_black_holed_flow_times_out_at_1_3_7_seconds():
    env = EventLoop()
    cc = TimeoutLog(initial_cwnd=2.0)
    sender = Sender(env, flow_id=0, cc=cc)
    sender.connect((0.0, Sink().receive))
    sender.start()
    env.run(until=10.0)
    # Backoff 1, 2, 4 on the srtt-less 1.0 s RTO, to the float.
    assert cc.timeouts_at == [1.0, 3.0, 7.0]
    assert sender._rto_backoff == 8.0


def test_resumed_acks_reset_the_backoff_and_fire_no_spurious_rto():
    """The deadline shrinks from ``armed_at + 1.0 · 4`` to a 0.2 s RTO at
    backoff 1 the moment fresh ACKs return; the pending guard must neither
    miss the new deadline nor fire the old one."""
    env = EventLoop()
    cc = TimeoutLog(initial_cwnd=2.0)
    sender = Sender(env, flow_id=0, cc=cc)
    receiver = Receiver(env)
    link = RateLink(env, ConstantRate(10e6),
                    qdisc=FifoQdisc(buffer_packets=100))
    link.connect(0, (0.0, receiver.receive, False))

    def gate(packet):
        """Black-holes the path until t = 1.5 s."""
        if env.now >= 1.5:
            link.send(packet)

    sender.connect((0.05, gate))
    receiver.connect((0.05, sender.receive))
    sender.start()
    env.run(until=8.0)
    # 1.0: first RTO; its retransmissions die too; 3.0: second RTO, whose
    # retransmissions get through.  Nothing after that.
    assert cc.timeouts_at == [1.0, 3.0]
    assert sender._rto_backoff == 1.0
    assert sender._rto_deadline(8.0) == 8.0 + MIN_RTO   # srtt + 4·rttvar < 0.2 s
    assert receiver.packets_received > 1000
    assert sender._rto_timer.armed_at is not None  # still in flight, armed


class RFC6298Check(AIMD):
    """AIMD that holds the sender's RTT record and RTO to RFC 6298 at every
    ACK and every timeout, feeding the reference what it observes: the
    time since the ACKed transmission left and whether it was a
    retransmission."""

    def __init__(self):
        super().__init__(initial_cwnd=4.0)
        self.reference = rfc6298.RetransmissionTimer(MIN_RTO, MAX_RTO)
        self.sender = None
        self.samples = []
        self.seen = collections.Counter()

    def check(self, now):
        record, reference = self.sender.rtt, self.reference
        assert (record.srtt, record.rttvar) == (reference.srtt,
                                                reference.rttvar)
        assert record.min_rtt == min(self.samples, default=math.inf)
        assert self.sender._rto_deadline(now) == now + reference.rto()
        if reference.srtt is not None:
            unbacked = reference.rto() / reference.backoff
            self.seen["floor" if unbacked == MIN_RTO else "above"] += 1
        self.seen[f"backoff {reference.backoff}"] += 1

    def on_ack(self, feedback):
        rtt = feedback.now - feedback.sent_time
        if feedback.is_retransmission:
            self.seen["karn"] += 1
        else:
            self.samples.append(rtt)
        self.reference.on_ack(rtt, feedback.is_retransmission)
        self.check(feedback.now)
        return super().on_ack(feedback)

    def on_timeout(self, now):
        self.check(now)
        self.reference.on_timeout()
        super().on_timeout(now)


class LossyHop:
    """A seeded path: each packet is lost with probability ``loss`` (and all
    of them inside ``blackout``), else delivered after 20–140 ms."""

    def __init__(self, env, dst, seed, loss, blackout):
        self.env, self.dst = env, dst
        self.rng = random.Random(seed)
        self.loss, self.blackout = loss, blackout

    def receive(self, packet):
        start, end = self.blackout
        if self.rng.random() < self.loss or start <= self.env.now < end:
            return
        self.env.post(0.02 + 0.12 * self.rng.random(), self.dst.receive,
                      packet)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sender_rtt_and_rto_follow_rfc6298(seed):
    """Over a seeded lossy, reordering path with a 6 s black-out (so
    timeouts back off, and retransmitted segments are ACKed), the sender's
    SRTT, RTTVAR, minimum RTT and RTO deadline equal RFC 6298's after every
    ACK and at every timeout."""
    env = EventLoop()
    cc = RFC6298Check()
    sender = cc.sender = Sender(env, flow_id=0, cc=cc)
    receiver = Receiver(env)
    receiver.connect((0.01, sender.receive))
    sender.connect((0.0, LossyHop(env, receiver, seed, 0.05, (3.0, 9.0))
                    .receive))
    sender.start()
    env.run(until=12.0)
    assert cc.seen["karn"] and cc.seen["floor"] and cc.seen["above"]
    assert sender.timeouts >= 4 and cc.seen["backoff 8"]
