"""ECN codepoint re-purposing (§5.1.2) and the proxied-network variant.

ABC needs one bit of router-to-sender feedback per packet but adds no header
fields.  Instead it re-interprets the two IP ECN bits:

* ABC senders transmit data packets with codepoint ``01`` (classic ECT(1)),
  which ABC routers read as *accelerate*;
* ABC routers signal *brake* by rewriting the codepoint to ``10`` (ECT(0));
* legacy ECN routers still see an ECN-capable transport either way and still
  use ``11`` (CE) for classic congestion marking, so both signals coexist.

On the return path the receiver echoes classic ECN via the ECE flag and the
accel/brake bit via the (historic) NS bit; in proxied cellular networks the
simpler encoding of the second table below works with unmodified receivers.

This module provides the explicit translation tables plus helpers used by the
unit tests; the hot-path marking logic lives directly in
:mod:`repro.simulator.packet` (:func:`~repro.simulator.packet.apply_brake`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.simulator.packet import ECN

#: Classic RFC 3168 interpretation of the ECT/CE bit pair.
CLASSIC_INTERPRETATION = {
    ECN.NOT_ECT: "Non-ECN-Capable Transport",
    ECN.ACCEL: "ECN-Capable Transport ECT(1)",
    ECN.BRAKE: "ECN-Capable Transport ECT(0)",
    ECN.CE: "ECN set",
}

#: ABC's re-interpretation of the same bits (§5.1.2, second table).
ABC_INTERPRETATION = {
    ECN.NOT_ECT: "Non-ECN-Capable Transport",
    ECN.ACCEL: "Accelerate",
    ECN.BRAKE: "Brake",
    ECN.CE: "ECN set",
}


@dataclass(frozen=True)
class ReceiverEcho:
    """What an ABC receiver feeds back for a given received codepoint.

    ``ece`` is the classic ECN-Echo flag; ``accel`` is the ABC feedback bit
    (carried in the re-purposed NS bit).
    """

    accel: bool
    ece: bool


def receiver_echo(codepoint: ECN) -> ReceiverEcho:
    """Feedback an ABC-aware receiver generates for a data packet."""
    return ReceiverEcho(accel=(codepoint == ECN.ACCEL),
                        ece=(codepoint == ECN.CE))


def sender_codepoint(abc_enabled: bool, ecn_enabled: bool = True) -> ECN:
    """Codepoint a sender stamps on outgoing data packets."""
    if abc_enabled:
        return ECN.ACCEL
    return ECN.BRAKE if ecn_enabled else ECN.NOT_ECT


# ---------------------------------------------------------------------------
# Proxied-network deployment (§5.1.2 "Deployment in Proxied Networks"): when
# no non-ABC router on the path uses ECN, accelerate can be either ECT
# codepoint and brake can be CE, so completely unmodified receivers (which
# echo CE via ECE) already convey ABC feedback.
# ---------------------------------------------------------------------------

def proxied_brake(codepoint: ECN) -> ECN:
    """Brake marking used by a proxy-deployed ABC router (plain CE)."""
    if codepoint.is_ecn_capable:
        return ECN.CE
    return codepoint


def proxied_receiver_accel(codepoint: ECN) -> bool:
    """An unmodified receiver echoes CE as ECE; absence of ECE = accelerate."""
    return codepoint != ECN.CE
