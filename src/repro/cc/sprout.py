"""Sprout (Winstein, Sivaraman & Balakrishnan, NSDI 2013), simplified forecast.

Sprout forecasts the cellular link rate with a stochastic model of packet
deliveries and sizes its congestion window so that, with high probability, the
data in flight drains within a 100 ms target.  Two behaviours matter for the
ABC paper's comparison (§2, §6.3):

* Sprout keeps queues small — its window is tied to a *forecast* of what the
  link will deliver within the delay target, so delays stay near the target.
* Sprout is *conservative*: the forecast is a cautious (low) percentile of the
  recent delivery process, so on links whose rate swings quickly it
  underutilises badly (the paper measures ABC at 79 % higher utilisation).

This implementation keeps that structure without the full stochastic-process
inference: while the measured queuing delay is below half the target the
window ramps multiplicatively (the forecast allows growth when the link is
clearly keeping up), and once queuing appears the window is pinned to a
conservative percentile of recently observed delivery rates times the delay
target.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple

import numpy as np

from repro.cc.base import CongestionControl
from repro.simulator.estimators import WindowedRateEstimator
from repro.simulator.packet import MTU, AckFeedback


class Sprout(CongestionControl):
    """Conservative forecast-based window sizing for cellular links."""

    name = "sprout"

    def __init__(self, mss: int = MTU, initial_cwnd: float = 4.0,
                 target_delay: float = 0.1, forecast_percentile: float = 25.0,
                 sample_window: float = 2.0, tick_interval: float = 0.02):
        super().__init__(mss=mss, initial_cwnd=initial_cwnd)
        if not 0 < forecast_percentile <= 100:
            raise ValueError("forecast_percentile must be in (0, 100]")
        self.target_delay = target_delay
        self.forecast_percentile = forecast_percentile
        self.sample_window = sample_window
        self.tick_interval = tick_interval
        self._delivery_rate = WindowedRateEstimator(window=0.2)
        self._rate_samples: Deque[Tuple[float, float]] = deque()
        # Memo of forecast_rate_bps(); dropped wherever _rate_samples changes
        # (at most once per tick, while the forecast is read on every ACK).
        self._forecast: Optional[float] = None
        self._last_sample_time = 0.0
        self._srtt = 0.1
        self.rtt_min = math.inf

    # ------------------------------------------------------------ forecast
    def _record_sample(self, now: float) -> None:
        if now - self._last_sample_time < self.tick_interval:
            return
        self._last_sample_time = now
        rate = self._delivery_rate.rate_bps(now)
        if rate <= 0:
            return
        self._rate_samples.append((now, rate))
        self._forecast = None
        cutoff = now - self.sample_window
        while self._rate_samples and self._rate_samples[0][0] < cutoff:
            self._rate_samples.popleft()

    def forecast_rate_bps(self) -> float:
        """Cautious (low-percentile) forecast of the deliverable rate."""
        forecast = self._forecast
        if forecast is None:
            if self._rate_samples:
                rates = np.array([r for _, r in self._rate_samples])
                forecast = float(np.percentile(rates, self.forecast_percentile))
            else:
                forecast = 0.0
            self._forecast = forecast
        return forecast

    def _queuing_delay(self) -> float:
        if not math.isfinite(self.rtt_min):
            return 0.0
        return max(self._srtt - self.rtt_min, 0.0)

    # ------------------------------------------------------------ interface
    def cwnd(self) -> float:
        return max(self._cwnd, self.min_cwnd())

    def on_ack(self, feedback: AckFeedback) -> float:
        now = feedback.now
        if feedback.rtt is not None:
            self.rtt_min = min(self.rtt_min, feedback.rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * feedback.rtt
        self._delivery_rate.add(now, feedback.bytes_acked)
        self._record_sample(now)

        acked_packets = feedback.bytes_acked / self.mss
        queuing = self._queuing_delay()
        forecast = self.forecast_rate_bps()
        forecast_window = (forecast * self.target_delay / 8.0) / self.mss

        if queuing < 0.5 * self.target_delay:
            # The link is draining everything we send: probe gently (about one
            # packet per RTT) above the cautious forecast.
            self._cwnd += acked_packets / max(self._cwnd, 1.0)
            if forecast_window > 0:
                self._cwnd = max(self._cwnd, forecast_window)
        else:
            # Queue building: pin the window to the cautious forecast of what
            # the link can drain within the delay target.
            if forecast_window > 0:
                self._cwnd = forecast_window
            else:
                self._cwnd = max(self._cwnd * 0.9, self.min_cwnd())
        self._clamp()
        return self.window()

    def on_loss(self, now: float) -> None:
        # Sprout's window already targets a bounded queue; a loss means the
        # forecast was too optimistic, so step down to the cautious estimate.
        forecast = self.forecast_rate_bps()
        if forecast > 0:
            self._cwnd = max((forecast * self.target_delay / 8.0) / self.mss,
                             self.min_cwnd())

    def on_timeout(self, now: float) -> None:
        self._rate_samples.clear()
        self._forecast = None
        self._cwnd = self.min_cwnd()

    def min_cwnd(self) -> float:
        return 2.0
