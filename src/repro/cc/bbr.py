"""BBR (Cardwell et al., 2016), simplified to its essential model.

BBR models the path with two quantities — the bottleneck bandwidth (windowed
maximum of the delivery rate) and the round-trip propagation delay (windowed
minimum RTT) — and paces at ``pacing_gain × btl_bw`` while capping the data in
flight at ``cwnd_gain × BDP``.  The PROBE_BW gain cycle periodically probes for
more bandwidth (gain 1.25) and then drains the resulting queue (gain 0.75).

The paper observes (§2, footnote 1 and §6.3) that on variable-bandwidth links
BBR's probing frequently overshoots the capacity, producing high 95th
percentile delays despite good utilisation — this implementation preserves
exactly that behaviour.  The full PROBE_RTT machinery is reduced to a periodic
window clamp.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import CongestionControl
from repro.simulator.estimators import WindowedMinMax, WindowedRateEstimator
from repro.simulator.packet import MTU, AckFeedback

#: PROBE_BW pacing-gain cycle (one phase per min-RTT).
GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)


class BBR(CongestionControl):
    """Simplified BBR: startup, drain, PROBE_BW gain cycling, PROBE_RTT clamp."""

    name = "bbr"
    needs_pacing = True

    STARTUP, DRAIN, PROBE_BW, PROBE_RTT = "startup", "drain", "probe_bw", "probe_rtt"

    def __init__(self, mss: int = MTU, initial_cwnd: float = 10.0,
                 bw_window: float = 10.0, rtt_window: float = 10.0,
                 probe_rtt_interval: float = 10.0, probe_rtt_duration: float = 0.2,
                 cwnd_gain: float = 2.0):
        super().__init__(mss=mss, initial_cwnd=initial_cwnd)
        self.state = self.STARTUP
        self.cwnd_gain = cwnd_gain
        self.btl_bw = WindowedMinMax(window=bw_window, mode="max")
        self.min_rtt = WindowedMinMax(window=rtt_window, mode="min")
        self.delivery_rate = WindowedRateEstimator(window=0.1)
        self.probe_rtt_interval = probe_rtt_interval
        self.probe_rtt_duration = probe_rtt_duration

        self._pacing_gain = 2.885
        self._cycle_index = 0
        self._cycle_start = 0.0
        self._full_bw = 0.0
        self._full_bw_count = 0
        self._last_probe_rtt = 0.0
        self._probe_rtt_until = -1.0

    # ------------------------------------------------------------ model
    def _bdp_packets(self) -> float:
        bw = self.btl_bw.get()
        rtt = self.min_rtt.get(default=0.1)
        if bw <= 0:
            return self._cwnd
        return bw * rtt / (self.mss * 8.0)

    def pacing_rate(self) -> float:
        bw = self.btl_bw.get()
        if bw <= 0:
            # Before the first bandwidth sample, pace at a nominal start-up
            # rate derived from the initial window and a 100 ms guess.
            return self._cwnd * self.mss * 8.0 / 0.1
        return self._pacing_gain * bw

    def cwnd(self) -> float:
        if self.state == self.PROBE_RTT:
            return 4.0
        return max(self.cwnd_gain * self._bdp_packets(), 4.0)

    # ------------------------------------------------------------ state
    def _check_full_pipe(self) -> None:
        bw = self.btl_bw.get()
        if bw > self._full_bw * 1.25:
            self._full_bw = bw
            self._full_bw_count = 0
        else:
            self._full_bw_count += 1

    def _advance_cycle(self, now: float) -> None:
        if now - self._cycle_start >= self.min_rtt.get(default=0.1):
            self._cycle_index = (self._cycle_index + 1) % len(GAIN_CYCLE)
            self._cycle_start = now
            self._pacing_gain = GAIN_CYCLE[self._cycle_index]

    def on_ack(self, feedback: AckFeedback) -> Optional[float]:
        now = feedback.now
        self.delivery_rate.add(now, feedback.bytes_acked)
        rate_sample = self.delivery_rate.rate_bps(now)
        if rate_sample > 0:
            self.btl_bw.update(now, rate_sample)
        if feedback.rtt is not None:
            self.min_rtt.update(now, feedback.rtt)

        if self.state == self.STARTUP:
            self._check_full_pipe()
            if self._full_bw_count >= 3:
                self.state = self.DRAIN
                self._pacing_gain = 1.0 / 2.885
        elif self.state == self.DRAIN:
            if feedback.packets_in_flight <= self._bdp_packets():
                self.state = self.PROBE_BW
                self._cycle_index = 0
                self._cycle_start = now
                self._pacing_gain = GAIN_CYCLE[0]
                self._last_probe_rtt = now
        elif self.state == self.PROBE_BW:
            self._advance_cycle(now)
            if now - self._last_probe_rtt >= self.probe_rtt_interval:
                self.state = self.PROBE_RTT
                self._probe_rtt_until = now + self.probe_rtt_duration
                self._pacing_gain = 1.0
        elif self.state == self.PROBE_RTT:
            if now >= self._probe_rtt_until:
                self.state = self.PROBE_BW
                self._last_probe_rtt = now
                self._cycle_index = 0
                self._cycle_start = now
                self._pacing_gain = GAIN_CYCLE[0]

    def on_loss(self, now: float) -> None:
        # BBR ignores isolated losses by design; the in-flight cap plus the
        # bandwidth model bound its aggressiveness.
        pass

    def on_timeout(self, now: float) -> None:
        self.state = self.STARTUP
        self._pacing_gain = 2.885
        self._full_bw = 0.0
        self._full_bw_count = 0
