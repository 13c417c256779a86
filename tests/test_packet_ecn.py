"""Tests for packets, ECN codepoints and the §5.1.2 re-purposing rules."""

import pytest

from repro.cc.cubic import Cubic
from repro.core.router import ABCRouterQdisc
from repro.core.sender import ABCWindowControl
from repro.simulator import packet as packet_module
from repro.simulator.endpoints import Receiver, Sender
from repro.simulator.engine import EventLoop
from repro.simulator.packet import ACK_SIZE, MTU, ECN, Packet, apply_ce
from tests.conftest import AIMD, decoded_echo
from tests.reference import abc_paper


# ---------------------------------------------------------------- codepoints
def test_ecn_codepoint_values_match_bit_layout():
    assert ECN.NOT_ECT == 0b00
    assert ECN.ACCEL == 0b01
    assert ECN.BRAKE == 0b10
    assert ECN.CE == 0b11


def test_accel_and_brake_are_legacy_ecn_capable():
    assert ECN.ACCEL.is_ecn_capable
    assert ECN.BRAKE.is_ecn_capable
    assert not ECN.NOT_ECT.is_ecn_capable
    assert not ECN.CE.is_ecn_capable


def test_apply_brake_only_downgrades_accelerate():
    """Through an ABC router whose f(t) is 0 (12 s of queue at 1 kbit/s),
    every codepoint leaves as §5.1.2's brake of it, and braking twice is
    braking once."""
    for codepoint in ECN:
        packet = Packet(flow_id=0, seq=0, ecn=codepoint)
        for _ in range(2):
            router = ABCRouterQdisc(capacity_fn=lambda now: 1e3)
            router.enqueue(packet, 0.0)
            router.enqueue(Packet(flow_id=0, seq=1), 0.0)
            assert router.dequeue(0.0) is packet
            assert router.last_fraction == 0.0
            assert packet.ecn == abc_paper.brake(codepoint)


def test_apply_ce_marks_only_ecn_capable_packets():
    assert apply_ce(ECN.ACCEL) == ECN.CE
    assert apply_ce(ECN.BRAKE) == ECN.CE
    assert apply_ce(ECN.NOT_ECT) == ECN.NOT_ECT
    assert apply_ce(ECN.CE) == ECN.CE


# ---------------------------------------------------------------- packets
def test_packet_defaults():
    pkt = Packet(flow_id=1, seq=0)
    assert pkt.size == MTU
    assert pkt.ecn == ECN.NOT_ECT
    assert pkt.total_queuing_delay == 0.0


def test_retransmission_flag_is_the_senders_record():
    """A packet carries no retransmission flag: the sender's outstanding
    record does, since a returning object may be an earlier transmission of
    a since-retransmitted number.  Nor does it keep a per-hop dequeue time;
    queues add each wait to ``total_queuing_delay``."""
    assert not {"is_retransmission", "dequeue_time",
                "queuing_delay"} & set(dir(Packet))
    env = EventLoop()
    sender = Sender(env, flow_id=0, cc=AIMD(initial_cwnd=2.0))
    sent = []
    sender.connect((0.0, sent.append))
    sender.start()
    env.run(until=0.5)
    assert [info[3] for info in sender.outstanding.values()] == [False, False]
    env.run(until=1.5)          # past the initial 1 s RTO
    assert sender.timeouts == 1 and sender.outstanding
    for seq, size, sent_time, retransmission in sender.outstanding.values():
        assert retransmission and sent_time == 1.0
        assert [p.sent_time for p in sent if p.seq == seq] == [0.0, 1.0]


def test_ack_defaults_and_detection():
    packet = Packet(flow_id=3, seq=7)
    assert not packet.is_ack and packet.echo is ECN.NOT_ECT
    Receiver(EventLoop()).receive(packet)
    # The receiver turned it around: a default-sized, Not-ECT ACK.
    assert packet.is_ack
    assert packet.size == ACK_SIZE
    assert (packet.flow_id, packet.seq) == (3, 7)
    assert packet.ecn is ECN.NOT_ECT and not packet.abc_capable


def test_module_constants_are_the_enum_members():
    for member in ECN:
        assert getattr(packet_module, member.name) is member


# ---------------------------------------------------------------- §5.1.2 tables
class Tap:
    """A next hop that keeps what it is handed."""

    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


def test_abc_reinterpretation_table():
    """The enum's members are §5.1.2's rows: the bit pair and, in the name,
    the ABC meaning."""
    assert set(ECN) == set(abc_paper.CODEPOINTS)
    assert abc_paper.CODEPOINTS[ECN.ACCEL][1] == "Accelerate"
    assert abc_paper.CODEPOINTS[ECN.BRAKE][1] == "Brake"
    assert (ECN.NOT_ECT, ECN.ACCEL, ECN.BRAKE, ECN.CE) == (
        abc_paper.NOT_ECT, abc_paper.ACCELERATE, abc_paper.BRAKE, abc_paper.CE)


def test_receiver_echo_accelerate():
    assert decoded_echo(ECN.ACCEL) == abc_paper.echo(ECN.ACCEL)
    assert abc_paper.echo(ECN.ACCEL) == (True, False)


def test_receiver_echo_brake():
    assert decoded_echo(ECN.BRAKE) == abc_paper.echo(ECN.BRAKE)
    assert abc_paper.echo(ECN.BRAKE) == (False, False)


def test_receiver_echo_ce_sets_ece():
    assert decoded_echo(ECN.CE) == abc_paper.echo(ECN.CE)
    assert abc_paper.echo(ECN.CE) == (False, True)


def test_sender_codepoint_selection():
    """An ABC sender stamps accelerate; any other sends Not-ECT."""
    for cc, expected in ((ABCWindowControl(), abc_paper.ACCELERATE),
                         (Cubic(), abc_paper.NOT_ECT)):
        sent = Tap()
        sender = Sender(EventLoop(), flow_id=0, cc=cc)
        sender.connect((0.0, sent.receive))
        sender.start()
        sender.env.run(until=0.01)
        assert sent.packets and {p.ecn for p in sent.packets} == {expected}


def test_legacy_router_sees_abc_packets_as_ecn_capable():
    """Both ABC codepoints are ECT to a classic router (§5.1.2's first
    table), so a legacy AQM CE-marks them instead of dropping."""
    for codepoint in (ECN.ACCEL, ECN.BRAKE):
        assert abc_paper.CODEPOINTS[codepoint][0].startswith(
            "ECN-Capable Transport")
        assert codepoint.is_ecn_capable and apply_ce(codepoint) is ECN.CE
