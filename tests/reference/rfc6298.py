"""RFC 6298's retransmission timer, written from the RFC's text: it takes
the RTT samples and timeouts a test observes.  Nothing here imports
``repro``."""

from __future__ import annotations

#: §2: the gains and the variance multiplier; §2.1: RTO before any sample.
ALPHA, BETA, K = 1 / 8, 1 / 4, 4
INITIAL_RTO = 1.0
#: §5.5 doubles the RTO per expiry; the doubling stops at 64×, as the
#: simulator's does (§2.5 lets a maximum bound the RTO).
MAX_BACKOFF = 64


class RetransmissionTimer:
    """SRTT, RTTVAR and the backed-off RTO of one connection.

    ``min_rto`` / ``max_rto`` are §2.4's 1 s floor and §2.5's ceiling of at
    least 60 s.  The simulator departs from the RFC with a 0.2 s floor
    (``MIN_RTO``), and it bounds the RTO before the backoff multiplies it.
    The clock granularity G of §2 is taken as 0."""

    def __init__(self, min_rto: float, max_rto: float):
        self.min_rto, self.max_rto = min_rto, max_rto
        self.srtt = self.rttvar = None
        self.backoff = 1

    def on_ack(self, rtt: float, retransmitted: bool) -> None:
        """An ACK whose segment was sent ``rtt`` seconds ago.  Karn's rule
        (§3): a retransmitted segment's ACK gives no sample and keeps the
        backed-off RTO (§5.7)."""
        if retransmitted:
            return
        if self.srtt is None:                       # §2.2
            self.srtt, self.rttvar = rtt, rtt / 2
        else:                                       # §2.3
            self.rttvar = ((1 - BETA) * self.rttvar
                           + BETA * abs(self.srtt - rtt))
            self.srtt = (1 - ALPHA) * self.srtt + ALPHA * rtt
        self.backoff = 1

    def on_timeout(self) -> None:
        """§5.5: the timer expired; back off."""
        self.backoff = min(2 * self.backoff, MAX_BACKOFF)

    def rto(self) -> float:
        if self.srtt is None:
            return INITIAL_RTO * self.backoff
        rto = min(max(self.srtt + K * self.rttvar, self.min_rto),
                  self.max_rto)
        return rto * self.backoff
