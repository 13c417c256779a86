"""TCP Cubic (Ha, Rhee & Xu, 2008), the paper's main loss-based baseline.

Cubic grows its window along a cubic curve anchored at the window size reached
just before the previous loss (``w_max``), which makes it aggressive on
high-BDP paths.  On the deep cellular buffers the paper studies it fills the
queue and produces the bufferbloat of Fig. 1a; paired with CoDel/PIE it
produces the underutilisation of Fig. 1c.  The ABC sender also uses Cubic as
the control law for its non-ABC window ``w_nonabc`` (§5.1.1), so this
implementation is reused by :mod:`repro.core.sender` — which is why it runs on
most ACKs of an ABC-heavy city and why :meth:`Cubic.on_ack` is written flat
(``tests/test_cc_endtoend.py`` checks it against RFC 8312 to the last bit).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cc.base import CongestionControl
from repro.simulator.packet import MTU, AckFeedback

#: Cubic scaling constant (RFC 8312 uses C = 0.4 with time in seconds).
CUBIC_C = 0.4
#: Multiplicative decrease factor.
CUBIC_BETA = 0.7
#: Per-RTT growth of the TCP-friendly window estimate (RFC 8312 §4.2).
_TCP_FRIENDLY_GAIN = 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA)


class Cubic(CongestionControl):
    """TCP Cubic congestion control (window-based, loss/ECN driven)."""

    name = "cubic"

    def __init__(self, initial_cwnd: float = 10.0):
        super().__init__(initial_cwnd=initial_cwnd)
        self.ssthresh = math.inf
        self.w_max = 0.0
        self.epoch_start: Optional[float] = None
        self.origin_point = 0.0
        self.k = 0.0
        self.w_tcp = 0.0
        self._srtt = 0.1
        self._last_reduction_time = -math.inf

    # ------------------------------------------------------------ helpers
    def _reset_epoch(self, now: float) -> None:
        self.epoch_start = now
        if self._cwnd < self.w_max:
            self.k = ((self.w_max - self._cwnd) / CUBIC_C) ** (1.0 / 3.0)
            self.origin_point = self.w_max
        else:
            self.k = 0.0
            self.origin_point = self._cwnd
        self.w_tcp = self._cwnd

    # ------------------------------------------------------------ interface
    def on_ack(self, feedback: AckFeedback) -> float:
        """ECN reaction, slow start, or the RFC 8312 window update, returning
        :meth:`window` (Cubic keeps the base ``cwnd`` / ``min_cwnd``, so that
        is ``max(self._cwnd, 1.0)``).  ``max`` is spelled as a comparison.
        """
        rtt = feedback.rtt
        if rtt is not None:
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        now = feedback.now
        if feedback.ece:
            self._reduce(now)
            cwnd = self._cwnd
            return cwnd if cwnd >= 1.0 else 1.0
        acked_packets = feedback.bytes_acked / MTU
        cwnd = self._cwnd
        if cwnd < self.ssthresh:
            cwnd += acked_packets
            self._cwnd = cwnd
            return cwnd if cwnd >= 1.0 else 1.0
        if self.epoch_start is None:
            self._reset_epoch(now)
        # W_cubic(t + RTT) = C·(t − K)³ + W_max (RFC 8312 Eq. 1).
        t = now - self.epoch_start + self._srtt
        target = self.origin_point + CUBIC_C * (t - self.k) ** 3
        per_window = cwnd if cwnd > 1.0 else 1.0
        if target > cwnd:
            cwnd += (target - cwnd) / per_window * acked_packets
        else:
            cwnd += 0.01 * acked_packets / per_window
        # RFC 8312 §4.2 estimate of what standard TCP would have reached,
        # per packet ACKed over the window as just updated.
        w_tcp = self.w_tcp + _TCP_FRIENDLY_GAIN * (
            acked_packets / (cwnd if cwnd > 1.0 else 1.0))
        self.w_tcp = w_tcp
        if w_tcp > cwnd:
            cwnd = w_tcp
        if cwnd < 1.0:
            cwnd = 1.0
        self._cwnd = cwnd
        return cwnd

    def _reduce(self, now: float) -> None:
        """Multiplicative decrease, at most once per smoothed RTT."""
        if now - self._last_reduction_time < self._srtt:
            return
        self._last_reduction_time = now
        self.epoch_start = None
        if self._cwnd < self.w_max:
            # Fast convergence (RFC 8312 §4.6).
            self.w_max = self._cwnd * (2.0 - CUBIC_BETA) / 2.0
        else:
            self.w_max = self._cwnd
        self._cwnd = max(self._cwnd * CUBIC_BETA, self.min_cwnd())
        self.ssthresh = max(self._cwnd, 2.0)

    def on_loss(self, now: float) -> None:
        self._reduce(now)

    def on_timeout(self, now: float) -> None:
        self.epoch_start = None
        self.w_max = self._cwnd
        self.ssthresh = max(self._cwnd * CUBIC_BETA, 2.0)
        self._cwnd = self.min_cwnd()
