"""ABC's WiFi link-rate estimator (§4.1, Eqs. 5–8).

The estimator runs at the access point.  For every transmitted A-MPDU batch it
observes the batch size ``b`` (frames), the frame size ``S`` (bits), the
transmission bitrate ``R`` and the block-ACK inter-arrival time ``TIA(b, t)``.
Because the inter-ACK time decomposes into a size-proportional part and a
size-independent overhead ``h(t)``,

    TIA(b, t) = b·S/R + h(t),

the inter-ACK time of a hypothetical *full* batch of ``M`` frames can be
extrapolated from a partial batch:

    T̂IA(M, t) = TIA(b, t) + (M − b)·S/R,                        (Eq. 8)

giving the link-capacity estimate

    µ̂(t) = M·S / T̂IA(M, t).                                     (Eq. 6)

Samples are smoothed with a moving average over a sliding window ``T`` (40 ms
in the paper) and the prediction is capped at twice the currently observed
dequeue rate, because ABC cannot ask senders for more than a rate doubling per
RTT anyway.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque

from repro.simulator.estimators import WindowedRateEstimator

#: The batch size ``M`` (frames) of Eqs. 6–8: an A-MPDU carries at most this
#: many frames, and a partial batch is extrapolated to this many.
MAX_BATCH_FRAMES = 32
#: The estimate is capped at this multiple of the rate actually delivered.
CAP_FACTOR = 2.0


@dataclass
class BatchObservation:
    """One A-MPDU transmission as seen by the qdisc (§6.1)."""

    time: float
    batch_frames: int
    frame_bits: float
    inter_ack_time: float
    bitrate_bps: float


class WiFiRateEstimator:
    """Implements the estimator of Eqs. (5)–(8)."""

    def __init__(self, window: float = 0.04):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._times: Deque[float] = deque()
        self._values: Deque[float] = deque()
        self._dequeue_rate = WindowedRateEstimator(window=window)

    # ------------------------------------------------------------ inputs
    def observe_batch(self, obs: BatchObservation) -> float:
        """Process one block-ACK and return the raw µ̂ sample (bps)."""
        if obs.batch_frames <= 0 or obs.inter_ack_time <= 0 or obs.bitrate_bps <= 0:
            raise ValueError("batch observation fields must be positive")
        m = MAX_BATCH_FRAMES
        b = min(obs.batch_frames, m)
        # Eq. 8: extrapolate the inter-ACK time to a full batch.
        tia_full = obs.inter_ack_time + (m - b) * obs.frame_bits / obs.bitrate_bps
        # Eq. 6: full-batch capacity estimate.
        mu_hat = m * obs.frame_bits / tia_full
        times, values = self._times, self._values
        times.append(obs.time)
        values.append(mu_hat)
        # Age out the samples older than the window (never this one), so an
        # estimator nothing reads stays one window long.
        cutoff = obs.time - self.window
        while times[0] < cutoff:
            times.popleft()
            values.popleft()
        # Track the actually delivered bits for the rate-doubling cap.
        self._dequeue_rate.add(obs.time, int(b * obs.frame_bits / 8))
        return mu_hat

    # ------------------------------------------------------------ outputs
    def estimate_bps(self, now: float, apply_cap: bool = True) -> float:
        """Smoothed (and optionally capped) link-capacity estimate µ̂(t)
        over the samples of the trailing ``window``; the ABC router's
        ``capacity_fn`` on a Wi-Fi link.  The cap reads the rate delivered
        over the same window."""
        cutoff = now - self.window
        times, values = self._times, self._values
        while times and times[0] < cutoff:
            times.popleft()
            values.popleft()
        if not values:
            return 0.0
        average = sum(values) / len(values)
        if not apply_cap:
            return average
        observed = self._dequeue_rate.rate_bps(now)
        if observed <= 0:
            return average
        return min(average, CAP_FACTOR * observed)
