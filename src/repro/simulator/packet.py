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

Echo convention.  There is one :class:`Packet` object per transmission: the
receiver turns the delivered packet around in place as its own ACK — ``is_ack``
set, the codepoint it saw moved to ``echo``, and ``ecn`` / ``abc_capable`` /
``size`` rewritten so the reverse path sees a bare, Not-ECT, unmarkable ACK.
The sender decodes ``echo`` the way §5.1.2 reads the returning header: ``echo
is ACCEL`` is the accelerate bit (the re-purposed NS flag), ``echo is CE`` is
ECE, brake and Not-ECT set neither (:func:`repro.core.ecn.receiver_echo`).
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
        return self in (ACCEL, BRAKE)


#: The codepoints bound once, for per-packet code: an ``ECN.X`` load goes
#: through the enum metaclass.  Members are singletons, so ``is`` compares.
NOT_ECT = ECN.NOT_ECT
ACCEL = ECN.ACCEL
BRAKE = ECN.BRAKE
CE = ECN.CE


def apply_brake(codepoint: ECN) -> ECN:
    """Downgrade a codepoint to *brake*, respecting the one-way rule.

    Routers may turn an accelerate into a brake but must never upgrade a brake
    (or touch CE / Not-ECT packets).
    """
    if codepoint == ACCEL:
        return BRAKE
    return codepoint


def apply_ce(codepoint: ECN) -> ECN:
    """Apply a classic ECN congestion mark (used by legacy AQM routers)."""
    if codepoint.is_ecn_capable:
        return CE
    return codepoint


@dataclass(slots=True)
class Packet:
    """A packet travelling through the simulator: data on the way out, its own
    acknowledgement on the way back (see the module docstring).

    Attributes
    ----------
    flow_id:
        Identifier of the flow the packet belongs to.
    seq:
        Sequence number, in packets, assigned by the sender.
    size:
        Size in bytes (headers included); the receiver's ``ack_size`` once the
        packet has been turned around.
    ecn:
        Current ECN codepoint.  ABC data packets start as :attr:`ECN.ACCEL`;
        ACKs travel Not-ECT.
    sent_time:
        Simulated time at which the sender transmitted the packet.
    is_retransmission:
        True when this packet is a retransmission of an earlier sequence
        number (retransmissions are excluded from RTT sampling).
    abc_capable:
        True for packets whose sender speaks ABC; routers use this to steer
        packets into the ABC or non-ABC queue (§5.2).  False on ACKs.
    meta:
        Scheme-specific in-band fields.  XCP/RCP/VCP store their multi-bit
        congestion headers here (the paper's point is precisely that ABC does
        *not* need such fields).  Returns to the sender with the ACK.
    is_ack:
        True once the receiver has turned the packet around.
    echo:
        On an ACK, the codepoint the data packet arrived with.
    """

    flow_id: int
    seq: int
    size: int = MTU
    ecn: ECN = NOT_ECT
    sent_time: float = 0.0
    is_retransmission: bool = False
    abc_capable: bool = False
    enqueue_time: float = 0.0
    dequeue_time: float = 0.0
    total_queuing_delay: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)
    is_ack: bool = False
    echo: ECN = NOT_ECT

    @property
    def queuing_delay(self) -> float:
        """Queuing delay experienced at the most recent bottleneck hop."""
        return max(self.dequeue_time - self.enqueue_time, 0.0)


@dataclass(slots=True)
class AckFeedback:
    """Normalised view of an ACK handed to congestion-control algorithms.

    Congestion controllers never see the returning :class:`Packet`; the
    sender converts it so that window- and rate-based algorithms share one
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
