"""Tests for packets, ECN codepoints and the §5.1.2 re-purposing rules."""

import pytest

from repro.core import ecn
from repro.simulator import packet as packet_module
from repro.simulator.endpoints import Receiver
from repro.simulator.engine import EventLoop
from repro.simulator.packet import (ACK_SIZE, MTU, ECN, Packet, apply_brake,
                                    apply_ce)


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
    assert apply_brake(ECN.ACCEL) == ECN.BRAKE
    assert apply_brake(ECN.BRAKE) == ECN.BRAKE
    assert apply_brake(ECN.CE) == ECN.CE
    assert apply_brake(ECN.NOT_ECT) == ECN.NOT_ECT


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
    assert not pkt.is_retransmission
    assert pkt.total_queuing_delay == 0.0


def test_queuing_delay_property():
    pkt = Packet(flow_id=1, seq=0)
    pkt.enqueue_time = 1.0
    pkt.dequeue_time = 1.25
    assert pkt.queuing_delay == pytest.approx(0.25)
    pkt.dequeue_time = 0.5  # never negative
    assert pkt.queuing_delay == 0.0


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
def test_abc_reinterpretation_table():
    assert ecn.ABC_INTERPRETATION[ECN.ACCEL] == "Accelerate"
    assert ecn.ABC_INTERPRETATION[ECN.BRAKE] == "Brake"
    assert ecn.CLASSIC_INTERPRETATION[ECN.ACCEL].startswith("ECN-Capable")


def test_receiver_echo_accelerate():
    echo = ecn.receiver_echo(ECN.ACCEL)
    assert echo.accel and not echo.ece


def test_receiver_echo_brake():
    echo = ecn.receiver_echo(ECN.BRAKE)
    assert not echo.accel and not echo.ece


def test_receiver_echo_ce_sets_ece():
    echo = ecn.receiver_echo(ECN.CE)
    assert not echo.accel and echo.ece


def test_sender_codepoint_selection():
    assert ecn.sender_codepoint(abc_enabled=True) == ECN.ACCEL
    assert ecn.sender_codepoint(abc_enabled=False) == ECN.BRAKE


def test_legacy_router_sees_abc_packets_as_ecn_capable():
    assert ecn.sender_codepoint(True).is_ecn_capable


def test_proxied_deployment_round_trip():
    # Sender marks accelerate, router may flip to CE for brake, receiver
    # echoes CE via ECE; absence of CE is read as accelerate.
    sent = ECN.ACCEL
    assert ecn.proxied_receiver_accel(sent)
    braked = ecn.proxied_brake(sent)
    assert braked == ECN.CE
    assert not ecn.proxied_receiver_accel(braked)
    assert ecn.proxied_brake(ECN.NOT_ECT) == ECN.NOT_ECT
