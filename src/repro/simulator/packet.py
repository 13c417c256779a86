"""Packets, ACKs and the ECN codepoints that ABC re-purposes.

The paper (§5.1.2) re-interprets the two IP ECN bits so that ABC feedback can
be carried without new header fields:

========  =======  ==============================
ECT bit   CE bit   ABC interpretation
========  =======  ==============================
0         0        Non-ECN-capable transport
0         1        **Accelerate**  (classic ECT(1))
1         0        **Brake**       (classic ECT(0))
1         1        ECN congestion experienced
========  =======  ==============================

ABC senders transmit every data packet marked *accelerate* (``01``).  ABC
routers may flip the codepoint to *brake* (``10``) but never the other way
around, which is what makes the minimum accelerate fraction along a
multi-bottleneck path win (§3.1.2, "Multiple bottlenecks").  Legacy
ECN-capable routers still see an ECN-capable transport and still use ``11`` to
signal congestion, so classic ECN marks remain distinguishable from ABC
feedback.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

#: Default maximum transmission unit, in bytes.  Mahimahi models delivery
#: opportunities in MTU-sized quanta, and the paper's buffer sizes are given
#: in "MTU-sized packets", so everything defaults to 1500 bytes.
MTU = 1500

#: Size of a bare ACK in bytes (TCP/IP headers only).
ACK_SIZE = 40


class ECN(enum.IntEnum):
    """The four ECN codepoints (``ECT`` bit first, then ``CE``)."""

    NOT_ECT = 0b00
    ACCEL = 0b01   # ECT(1) — ABC "accelerate"
    BRAKE = 0b10   # ECT(0) — ABC "brake"
    CE = 0b11      # congestion experienced

    @property
    def is_ecn_capable(self) -> bool:
        """True when a legacy ECN router would treat the packet as ECN-capable."""
        return self in (ECN.ACCEL, ECN.BRAKE)


def apply_brake(codepoint: ECN) -> ECN:
    """Downgrade a codepoint to *brake*, respecting the one-way rule.

    Routers may turn an accelerate into a brake but must never upgrade a brake
    (or touch CE / Not-ECT packets).
    """
    if codepoint == ECN.ACCEL:
        return ECN.BRAKE
    return codepoint


def apply_ce(codepoint: ECN) -> ECN:
    """Apply a classic ECN congestion mark (used by legacy AQM routers)."""
    if codepoint.is_ecn_capable:
        return ECN.CE
    return codepoint


@dataclass(slots=True)
class Packet:
    """A data packet travelling through the simulator.

    Attributes
    ----------
    flow_id:
        Identifier of the flow the packet belongs to.
    seq:
        Sequence number, in packets, assigned by the sender.
    size:
        Size in bytes (headers included).
    ecn:
        Current ECN codepoint.  ABC data packets start as :attr:`ECN.ACCEL`.
    sent_time:
        Simulated time at which the sender transmitted the packet.
    is_retransmission:
        True when this packet is a retransmission of an earlier sequence
        number (retransmissions are excluded from RTT sampling).
    abc_capable:
        True for packets whose sender speaks ABC; routers use this to steer
        packets into the ABC or non-ABC queue (§5.2).
    meta:
        Scheme-specific in-band fields.  XCP/RCP/VCP store their multi-bit
        congestion headers here (the paper's point is precisely that ABC does
        *not* need such fields).
    """

    flow_id: int
    seq: int
    size: int = MTU
    ecn: ECN = ECN.NOT_ECT
    sent_time: float = 0.0
    is_retransmission: bool = False
    abc_capable: bool = False
    enqueue_time: float = 0.0
    dequeue_time: float = 0.0
    total_queuing_delay: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def queuing_delay(self) -> float:
        """Queuing delay experienced at the most recent bottleneck hop."""
        return max(self.dequeue_time - self.enqueue_time, 0.0)


@dataclass(slots=True)
class Ack:
    """An acknowledgement flowing back to the sender.

    The receiver echoes both the classic ECN congestion signal (``ece``) and
    the ABC accelerate/brake bit (``accel``), mirroring the paper's use of the
    ECE flag and the re-purposed NS bit (§5.1.2).
    """

    flow_id: int
    seq: int
    size: int = ACK_SIZE
    accel: bool = True
    ece: bool = False
    ecn: ECN = ECN.NOT_ECT
    meta: dict[str, Any] = field(default_factory=dict)

    # ACKs traverse (possibly trace-driven) reverse links, so they carry the
    # same bookkeeping fields as data packets.
    sent_time: float = 0.0
    enqueue_time: float = 0.0
    dequeue_time: float = 0.0
    total_queuing_delay: float = 0.0
    is_retransmission: bool = False
    abc_capable: bool = False

    @property
    def is_ack(self) -> bool:
        return True


def is_ack(packet: object) -> bool:
    """True when ``packet`` is an :class:`Ack` (data packets lack ``is_ack``)."""
    return isinstance(packet, Ack)


class PacketPool:
    """Freelist recycling :class:`Packet` and :class:`Ack` objects.

    The per-packet pipeline allocates one ``Packet`` per transmission and one
    ``Ack`` per delivery; at hot-path event rates that allocation churn is
    measurable.  The sender acquires data packets here and the receiver
    releases them once their fields have been copied into the flow statistics
    (and vice versa for ACKs), so each object's lifetime ends at a single
    well-defined point and recycling cannot alias a live reference.

    Determinism: ``acquire_*`` resets *every* field to exactly what the
    corresponding constructor call would produce — including the
    caller-supplied ``meta`` dict (never a cleared old one, since in-band
    ``meta`` dicts may outlive their packet via :class:`AckFeedback`).
    Pooling therefore changes which Python object carries the data, never the
    data itself.
    """

    __slots__ = ("max_size", "_packets", "_acks", "reused", "created")

    def __init__(self, max_size: int = 2048):
        self.max_size = max_size
        self._packets: list[Packet] = []
        self._acks: list[Ack] = []
        self.reused = 0
        self.created = 0

    # ------------------------------------------------------------ packets
    def acquire_packet(self, flow_id: int, seq: int, size: int, ecn: ECN,
                       sent_time: float, is_retransmission: bool,
                       abc_capable: bool, meta: dict) -> Packet:
        pool = self._packets
        if pool:
            packet = pool.pop()
            self.reused += 1
            packet.flow_id = flow_id
            packet.seq = seq
            packet.size = size
            packet.ecn = ecn
            packet.sent_time = sent_time
            packet.is_retransmission = is_retransmission
            packet.abc_capable = abc_capable
            packet.enqueue_time = 0.0
            packet.dequeue_time = 0.0
            packet.total_queuing_delay = 0.0
            packet.meta = meta
            return packet
        self.created += 1
        return Packet(flow_id=flow_id, seq=seq, size=size, ecn=ecn,
                      sent_time=sent_time, is_retransmission=is_retransmission,
                      abc_capable=abc_capable, meta=meta)

    def release_packet(self, packet: Packet) -> None:
        if len(self._packets) < self.max_size:
            self._packets.append(packet)

    # ------------------------------------------------------------ acks
    def acquire_ack(self, flow_id: int, seq: int, size: int, accel: bool,
                    ece: bool, sent_time: float, meta: dict) -> Ack:
        pool = self._acks
        if pool:
            ack = pool.pop()
            self.reused += 1
            ack.flow_id = flow_id
            ack.seq = seq
            ack.size = size
            ack.accel = accel
            ack.ece = ece
            ack.ecn = ECN.NOT_ECT
            ack.meta = meta
            ack.sent_time = sent_time
            ack.enqueue_time = 0.0
            ack.dequeue_time = 0.0
            ack.total_queuing_delay = 0.0
            ack.is_retransmission = False
            ack.abc_capable = False
            return ack
        self.created += 1
        return Ack(flow_id=flow_id, seq=seq, size=size, accel=accel, ece=ece,
                   sent_time=sent_time, meta=meta)

    def release_ack(self, ack: Ack) -> None:
        if len(self._acks) < self.max_size:
            self._acks.append(ack)


#: Process-wide pool shared by all senders/receivers (worker processes each
#: get their own copy, so pooled sweeps stay independent).
packet_pool = PacketPool()


@dataclass(slots=True)
class AckFeedback:
    """Normalised view of an ACK handed to congestion-control algorithms.

    Congestion controllers never see raw :class:`Ack` objects; the sender
    converts them so that window- and rate-based algorithms share one
    interface.
    """

    now: float
    rtt: Optional[float]
    bytes_acked: int
    accel: bool
    ece: bool
    packets_in_flight: int
    is_retransmission: bool = False
    sent_time: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)
