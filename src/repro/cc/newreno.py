"""TCP NewReno: slow start plus AIMD congestion avoidance (RFC 6582).

The paper cites NewReno as the canonical loss-based scheme whose blind
additive increase cannot track fast-varying wireless links (§2).  It is also
the reference behaviour for the fluid-model fairness arguments.
"""

from __future__ import annotations

import math

from repro.cc.base import CongestionControl
from repro.simulator.packet import MTU, AckFeedback


class NewReno(CongestionControl):
    """Slow start + AIMD with a 0.5 multiplicative decrease."""

    name = "newreno"

    def __init__(self):
        super().__init__()
        self.ssthresh = math.inf
        self._srtt = 0.1
        self._last_reduction_time = -math.inf

    def on_ack(self, feedback: AckFeedback) -> float:
        if feedback.rtt is not None:
            self._srtt = 0.875 * self._srtt + 0.125 * feedback.rtt
        if feedback.ece:
            self.on_loss(feedback.now)
            return self.window()
        acked_packets = feedback.bytes_acked / MTU
        if self._cwnd < self.ssthresh:
            self._cwnd += acked_packets
        else:
            self._cwnd += acked_packets / max(self._cwnd, 1.0)
        return self.window()

    def on_loss(self, now: float) -> None:
        if now - self._last_reduction_time < self._srtt:
            return
        self._last_reduction_time = now
        self.ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = self.ssthresh
        self._clamp()

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self._cwnd / 2.0, 2.0)
        self._cwnd = self.min_cwnd()
