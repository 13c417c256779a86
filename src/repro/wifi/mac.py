"""802.11n MAC model: A-MPDU batching, block ACKs and per-batch overhead.

The model captures exactly the features of the WiFi MAC that the paper's link
rate estimator depends on (§4.1):

* frames are transmitted in A-MPDU batches of at most ``max_batch_frames``
  frames; a new batch starts only after the previous batch's block ACK;
* when the queue holds fewer than a full batch, a smaller batch is sent —
  which is why naive utilisation-based capacity estimates fail;
* every batch pays a size-independent overhead ``h(t)`` (channel contention,
  preamble, block-ACK reception) drawn from a configurable random range,
  which produces the vertical spread seen in Fig. 4;
* the PHY bitrate ``R`` follows an :class:`~repro.wifi.mcs.MCSSchedule`
  (fixed, alternating or Brownian).

The link exposes the observables the ABC qdisc reads from the driver (batch
size, block-ACK time, bitrate) and feeds them to an attached
:class:`~repro.wifi.rate_estimator.WiFiRateEstimator`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from repro.simulator.engine import EventLoop
from repro.simulator.link import Link
from repro.simulator.packet import MTU, Packet
from repro.simulator.qdisc import Qdisc
from repro.wifi.mcs import FixedMCSSchedule, MCSSchedule
from repro.wifi.rate_estimator import BatchObservation, WiFiRateEstimator


@dataclass
class WiFiMacConfig:
    """Parameters of the 802.11n MAC model.

    ``overhead_min``/``overhead_max`` bound the per-batch overhead ``h(t)``;
    the defaults (0.8–2.5 ms) reproduce the spread of inter-ACK times shown in
    Fig. 4, where full batches of ~20 frames take 6–14 ms.
    """

    max_batch_frames: int = 32
    frame_size_bytes: int = MTU
    overhead_min: float = 0.0008
    overhead_max: float = 0.0025
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_frames <= 0:
            raise ValueError("max_batch_frames must be positive")
        if self.frame_size_bytes <= 0:
            raise ValueError("frame_size_bytes must be positive")
        if not 0 <= self.overhead_min <= self.overhead_max:
            raise ValueError("need 0 <= overhead_min <= overhead_max")

    @property
    def mean_overhead(self) -> float:
        return (self.overhead_min + self.overhead_max) / 2.0


class WiFiLink(Link):
    """A WiFi hop that transmits queued packets in A-MPDU batches."""

    def __init__(self, env: EventLoop, mcs: Optional[MCSSchedule] = None,
                 config: Optional[WiFiMacConfig] = None,
                 qdisc: Optional[Qdisc] = None, prop_delay: float = 0.0,
                 name: str = "wifi", dst=None,
                 estimator: Optional[WiFiRateEstimator] = None):
        super().__init__(env, qdisc=qdisc, prop_delay=prop_delay, name=name, dst=dst)
        self.mcs = mcs if mcs is not None else FixedMCSSchedule(7)
        self.config = config if config is not None else WiFiMacConfig()
        self._rng = random.Random(self.config.seed)
        self.estimator = estimator
        self._transmitting = False
        self._last_ack_time: Optional[float] = None
        self.batches_sent = 0
        self.batch_log: list[BatchObservation] = []

    # ------------------------------------------------------------ batching
    def _on_enqueue(self, now: float) -> None:
        if not self._transmitting:
            self._start_batch()

    def _draw_overhead(self) -> float:
        lo, hi = self.config.overhead_min, self.config.overhead_max
        if hi <= lo:
            return lo
        return self._rng.uniform(lo, hi)

    def _start_batch(self) -> None:
        now = self.env.now
        if self.qdisc.is_empty:
            self._transmitting = False
            return
        self._transmitting = True
        batch: list[Packet] = []
        while len(batch) < self.config.max_batch_frames:
            packet = self.qdisc.dequeue(now)
            if packet is None:
                break
            batch.append(packet)
        if not batch:
            self._transmitting = False
            return
        bitrate = self.mcs.rate_at(now)
        frame_bits = self.config.frame_size_bytes * 8.0
        payload_bits = sum(p.size for p in batch) * 8.0
        tx_time = payload_bits / bitrate + self._draw_overhead()
        self.env.post(tx_time, self._finish_batch, batch, now, bitrate, tx_time)

    def _finish_batch(self, batch: list[Packet], start_time: float,
                      bitrate: float, tx_time: float) -> None:
        now = self.env.now
        self.batches_sent += 1
        # Block-ACK inter-arrival time: time since the previous block ACK if
        # the radio stayed busy, otherwise the duration of this batch alone.
        if self._last_ack_time is not None and self._last_ack_time >= start_time:
            inter_ack = now - self._last_ack_time
        else:
            inter_ack = tx_time
        self._last_ack_time = now

        frame_bits = self.config.frame_size_bytes * 8.0
        observation = BatchObservation(
            time=now,
            batch_frames=len(batch),
            frame_bits=frame_bits,
            inter_ack_time=inter_ack,
            bitrate_bps=bitrate,
        )
        self.batch_log.append(observation)
        if self.estimator is not None:
            self.estimator.observe_batch(observation)

        for packet in batch:
            self._deliver(packet)
        self._start_batch()

    # ------------------------------------------------------------ capacity
    def true_capacity_bps(self, now: float) -> float:
        """Backlogged-link capacity given the current MCS and mean overhead.

        This is the ground truth the estimator is evaluated against in Fig. 5:
        a full batch of M frames takes ``M·S/R + E[h]`` seconds.
        """
        bitrate = self.mcs.rate_at(now)
        m = self.config.max_batch_frames
        frame_bits = self.config.frame_size_bytes * 8.0
        batch_time = m * frame_bits / bitrate + self.config.mean_overhead
        return m * frame_bits / batch_time

    def capacity_bps(self, now: float) -> float:
        """Capacity exposed to router qdiscs.

        If a rate estimator is attached (the deployment the paper describes),
        its estimate is used; otherwise fall back to the ground truth.
        """
        if self.estimator is not None:
            estimate = self.estimator.estimate_bps(now)
            if estimate > 0:
                return estimate
        return self.true_capacity_bps(now)

    def offered_bits(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        # Integrate the true capacity with a step smaller than the MCS period.
        step = 0.05
        total = 0.0
        t = t0
        while t < t1:
            dt = min(step, t1 - t)
            total += self.true_capacity_bps(t) * dt
            t += dt
        return total
