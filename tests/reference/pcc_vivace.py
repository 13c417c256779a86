"""PCC Vivace's ACK attribution (Dong et al., NSDI 2018, §4): each ACK is
credited to the monitor interval (MI) in which its packet was *sent*, so an
MI's utility reads the rate it probed.  Plain functions over anything with
an MI's fields (``start``, ``duration``, ``bytes_acked``, ``first_rtt``,
``last_rtt``).  Nothing here imports ``repro``."""

from __future__ import annotations

#: An ACK is not searched for further back than MIs that ended this many
#: smoothed RTTs before its packet's send time.
LOOKBACK_RTTS = 4


def contains(mi, sent_time: float) -> bool:
    """An MI covers the half-open ``[start, start + duration)``, so a
    packet sent at the instant one MI ends belongs to the next."""
    return mi.start <= sent_time < mi.start + mi.duration


def find_mi(mis: list, sent_time: float, srtt: float):
    """The newest MI in ``mis`` (oldest first) covering ``sent_time``, or
    ``None`` once the search reaches MIs that ended ``LOOKBACK_RTTS``
    smoothed RTTs before it."""
    for mi in reversed(mis):
        if contains(mi, sent_time):
            return mi
        if mi.start + mi.duration <= sent_time - LOOKBACK_RTTS * srtt:
            break
    return None


def observe_ack(mi, bytes_acked: int, rtt) -> None:
    """Credit one ACK to ``mi``: its bytes, and its RTT sample (``None`` for
    a retransmission's ACK) as the MI's last and, if first, first RTT."""
    mi.bytes_acked += bytes_acked
    if rtt is not None:
        if mi.first_rtt is None:
            mi.first_rtt = rtt
        mi.last_rtt = rtt
