"""TCP Vegas (Brakmo & Peterson, 1994): delay-based congestion avoidance.

Vegas compares the expected throughput ``cwnd / base_rtt`` with the actual
throughput ``cwnd / rtt`` and keeps the difference (measured in packets of
standing queue) between ``alpha`` and ``beta``.  On wireless links it keeps
queues short but — like every end-to-end scheme — has no way to learn about
capacity increases quickly, so it underutilises the link in the paper's
evaluation (Figs. 8–10).
"""

from __future__ import annotations

import math

from repro.cc.base import CongestionControl
from repro.simulator.packet import MTU, AckFeedback

#: Standing-queue thresholds (packets): grow below ``ALPHA``, shrink above
#: ``BETA``; slow start ends above ``GAMMA``.
ALPHA = 2.0
BETA = 4.0
GAMMA = 1.0


class Vegas(CongestionControl):
    """TCP Vegas with the classic alpha/beta packet thresholds."""

    name = "vegas"

    def __init__(self):
        super().__init__(initial_cwnd=4.0)
        self.base_rtt = math.inf
        self.ssthresh = math.inf
        self._srtt: float | None = None
        self._in_slow_start = True

    def _diff_packets(self) -> float:
        """Standing queue occupancy estimate in packets."""
        if self._srtt is None or not math.isfinite(self.base_rtt) or self._srtt <= 0:
            return 0.0
        expected = self._cwnd / self.base_rtt
        actual = self._cwnd / self._srtt
        return (expected - actual) * self.base_rtt

    def on_ack(self, feedback: AckFeedback) -> float:
        if feedback.rtt is not None:
            self.base_rtt = min(self.base_rtt, feedback.rtt)
            if self._srtt is None:
                self._srtt = feedback.rtt
            else:
                self._srtt = 0.875 * self._srtt + 0.125 * feedback.rtt
        if feedback.ece:
            self.on_loss(feedback.now)
            return self.window()
        acked_packets = feedback.bytes_acked / MTU
        diff = self._diff_packets()
        if self._in_slow_start:
            if diff > GAMMA:
                self._in_slow_start = False
                self.ssthresh = self._cwnd
            else:
                # Vegas doubles every other RTT; growing by half an MSS per
                # ACK gives the same average pace without per-RTT state.
                self._cwnd += acked_packets / 2.0
                return self.window()
        if diff < ALPHA:
            self._cwnd += acked_packets / max(self._cwnd, 1.0)
        elif diff > BETA:
            self._cwnd -= acked_packets / max(self._cwnd, 1.0)
        return self._floor_cwnd()

    def on_loss(self, now: float) -> None:
        self._in_slow_start = False
        self._cwnd = max(self._cwnd * 0.75, self.min_cwnd())

    def on_timeout(self, now: float) -> None:
        self._in_slow_start = True
        self._cwnd = self.min_cwnd()

    def min_cwnd(self) -> float:
        return 2.0
