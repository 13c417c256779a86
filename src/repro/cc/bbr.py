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

Optimisation changes: ``on_ack`` inlines the delivery-rate read and both
filters' ``WindowedMinMax.update``, keeping the published ``best`` that
``cwnd()`` and ``pacing_rate()`` read.  Results are bit-identical.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import CongestionControl
from repro.simulator.estimators import (_TRIM, WindowedMinMax,
                                        WindowedRateEstimator)
from repro.simulator.packet import MTU, AckFeedback

#: PROBE_BW pacing-gain cycle (one phase per min-RTT).
GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
#: Windows (s) of the bottleneck-bandwidth max and the min-RTT filters.
BW_WINDOW = 10.0
RTT_WINDOW = 10.0
#: PROBE_RTT: entered every ``PROBE_RTT_INTERVAL`` s, held for
#: ``PROBE_RTT_DURATION`` s.
PROBE_RTT_INTERVAL = 10.0
PROBE_RTT_DURATION = 0.2
#: In-flight cap in BDPs.
CWND_GAIN = 2.0
#: The model's states (``BBR.state``).
STARTUP, DRAIN, PROBE_BW, PROBE_RTT = "startup", "drain", "probe_bw", "probe_rtt"


class BBR(CongestionControl):
    """Simplified BBR: startup, drain, PROBE_BW gain cycling, PROBE_RTT clamp."""

    name = "bbr"
    needs_pacing = True

    def __init__(self):
        super().__init__()
        self.state = STARTUP
        self.btl_bw = WindowedMinMax(window=BW_WINDOW, mode="max")
        self.min_rtt = WindowedMinMax(window=RTT_WINDOW, mode="min")
        self.delivery_rate = WindowedRateEstimator(window=0.1)

        self._pacing_gain = 2.885
        self._cycle_index = 0
        self._cycle_start = 0.0
        self._full_bw = 0.0
        self._full_bw_count = 0
        self._last_probe_rtt = 0.0
        self._probe_rtt_until = -1.0

    # ------------------------------------------------------------ model
    def pacing_rate(self) -> float:
        bw = self.btl_bw.best
        if bw is None or bw <= 0:
            # Before the first bandwidth sample, pace at a nominal start-up
            # rate derived from the initial window and a 100 ms guess.
            return self._cwnd * MTU * 8.0 / 0.1
        return self._pacing_gain * bw

    def cwnd(self) -> float:
        if self.state == PROBE_RTT:
            return 4.0
        # CWND_GAIN BDPs, in packets (the min-RTT filter defaults to 100 ms).
        bw = self.btl_bw.best
        if bw is None or bw <= 0:
            return max(CWND_GAIN * self._cwnd, 4.0)
        rtt = self.min_rtt.best
        bdp = bw * (0.1 if rtt is None else rtt) / (MTU * 8.0)
        cwnd = CWND_GAIN * bdp
        return 4.0 if cwnd < 4.0 else cwnd

    # ------------------------------------------------------------ state
    def on_ack(self, feedback: AckFeedback) -> Optional[float]:
        now = feedback.now
        acked = feedback.bytes_acked
        # WindowedRateEstimator.add, inlined; the rate read below expires.
        rate = self.delivery_rate
        if rate._first_sample_time is None:
            rate._first_sample_time = now
        times = rate._times
        times.append(now)
        rate._sizes.append(acked)
        rate._total += acked
        # WindowedRateEstimator.rate_bps, inlined: the sample just appended
        # is live, so the window is never empty.
        window = rate.window
        cutoff = now - window
        start = rate._start
        if times[start] < cutoff:
            sizes, expired, n = rate._sizes, rate._expired, len(times)
            while start < n and times[start] < cutoff:
                expired += sizes[start]
                start += 1
            rate._expired = expired
            if start >= _TRIM:
                del times[:start]
                del sizes[:start]
                start = 0
            rate._start = start
        span = now - rate._first_sample_time
        if span > window or span <= 0.0:
            span = window
        rate_sample = (rate._total - rate._expired) * 8.0 / span
        if rate_sample > 0:
            # WindowedMinMax.update, inlined for the max filter.
            btl_bw = self.btl_bw
            samples = btl_bw._samples
            while samples and rate_sample >= samples[-1][1]:
                samples.pop()
            samples.append((now, rate_sample))
            cutoff = now - btl_bw.window
            while samples[0][0] < cutoff:
                samples.popleft()
            btl_bw.best = samples[0][1]
        rtt = feedback.rtt
        if rtt is not None:
            # WindowedMinMax.update, inlined for the min filter.
            min_rtt = self.min_rtt
            samples = min_rtt._samples
            while samples and rtt <= samples[-1][1]:
                samples.pop()
            samples.append((now, rtt))
            cutoff = now - min_rtt.window
            while samples[0][0] < cutoff:
                samples.popleft()
            min_rtt.best = samples[0][1]

        state = self.state
        if state == STARTUP:
            # The pipe is full after three ACKs without 25 % more bandwidth.
            bw = self.btl_bw.get()
            if bw > self._full_bw * 1.25:
                self._full_bw = bw
                self._full_bw_count = 0
            else:
                self._full_bw_count += 1
            if self._full_bw_count >= 3:
                self.state = DRAIN
                self._pacing_gain = 1.0 / 2.885
        elif state == DRAIN:
            # The BDP in packets, as cwnd() computes it.
            bw, rtt = self.btl_bw.best, self.min_rtt.best
            if feedback.packets_in_flight <= (
                    self._cwnd if bw is None or bw <= 0
                    else bw * (0.1 if rtt is None else rtt) / (MTU * 8.0)):
                self.state = PROBE_BW
                self._cycle_index = 0
                self._cycle_start = now
                self._pacing_gain = GAIN_CYCLE[0]
                self._last_probe_rtt = now
        elif state == PROBE_BW:
            # Advance the gain cycle once per min-RTT.
            rtt = self.min_rtt.best
            if now - self._cycle_start >= (0.1 if rtt is None else rtt):
                self._cycle_index = (self._cycle_index + 1) % len(GAIN_CYCLE)
                self._cycle_start = now
                self._pacing_gain = GAIN_CYCLE[self._cycle_index]
            if now - self._last_probe_rtt >= PROBE_RTT_INTERVAL:
                self.state = PROBE_RTT
                self._probe_rtt_until = now + PROBE_RTT_DURATION
                self._pacing_gain = 1.0
        elif state == PROBE_RTT:
            if now >= self._probe_rtt_until:
                self.state = PROBE_BW
                self._last_probe_rtt = now
                self._cycle_index = 0
                self._cycle_start = now
                self._pacing_gain = GAIN_CYCLE[0]

    def on_loss(self, now: float) -> None:
        # BBR ignores isolated losses by design; the in-flight cap plus the
        # bandwidth model bound its aggressiveness.
        pass

    def on_timeout(self, now: float) -> None:
        self.state = STARTUP
        self._pacing_gain = 2.885
        self._full_bw = 0.0
        self._full_bw_count = 0
