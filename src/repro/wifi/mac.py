"""802.11n MAC model: A-MPDU batching, block ACKs and per-batch overhead.

The model captures exactly the features of the WiFi MAC that the paper's link
rate estimator depends on (§4.1):

* frames are transmitted in A-MPDU batches of at most ``MAX_BATCH_FRAMES``
  (the estimator's ``M``) MTU-sized frames; a new batch starts only after
  the previous batch's block ACK;
* when the queue holds fewer than a full batch, a smaller batch is sent —
  which is why naive utilisation-based capacity estimates fail;
* every batch pays a size-independent overhead ``h(t)`` (channel contention,
  preamble, block-ACK reception) drawn uniformly from
  ``[OVERHEAD_MIN, OVERHEAD_MAX]`` by the link's seeded generator, which
  produces the vertical spread seen in Fig. 4;
* the PHY bitrate ``R`` is a :class:`~repro.simulator.link.CapacityModel`
  (constant, a square wave or Appendix B's Brownian walk).

The link exposes the observables the ABC qdisc reads from the driver (batch
size, block-ACK time, bitrate) and feeds them to an attached
:class:`~repro.wifi.rate_estimator.WiFiRateEstimator`.

Optimisation changes: a finished batch delivers its frames inline, reading
the link's route table as :class:`~repro.simulator.link.RateLink` does,
instead of posting a zero-delay event per frame (results bit-identical).
"""

from __future__ import annotations

import random
from typing import Optional

from repro.simulator.engine import EventLoop
from repro.simulator.link import CapacityModel, Link
from repro.simulator.packet import MTU, Packet
from repro.simulator.qdisc import Qdisc
from repro.wifi.rate_estimator import (MAX_BATCH_FRAMES, BatchObservation,
                                       WiFiRateEstimator)

#: Bounds (s) of the per-batch overhead ``h(t)``: 0.8–2.5 ms reproduce the
#: spread of inter-ACK times shown in Fig. 4, where full batches of ~20
#: frames take 6–14 ms.
OVERHEAD_MIN = 0.0008
OVERHEAD_MAX = 0.0025


def backlogged_capacity_bps(bitrate: float) -> float:
    """Backlogged-link capacity at PHY ``bitrate``: a full batch of M
    MTU-sized frames takes ``M·S/R + E[h]`` seconds."""
    m = MAX_BATCH_FRAMES
    frame_bits = MTU * 8.0
    return m * frame_bits / (m * frame_bits / bitrate
                             + (OVERHEAD_MIN + OVERHEAD_MAX) / 2.0)


class WiFiLink(Link):
    """A WiFi hop that transmits queued packets in A-MPDU batches at the PHY
    rate ``phy_rate``; ``seed`` seeds its per-batch overhead draws."""

    def __init__(self, env: EventLoop, phy_rate: CapacityModel,
                 seed: int = 0, qdisc: Optional[Qdisc] = None,
                 name: str = "wifi",
                 estimator: Optional[WiFiRateEstimator] = None):
        super().__init__(env, qdisc=qdisc, name=name)
        self.phy_rate = phy_rate
        self._rng = random.Random(seed)
        self.estimator = estimator
        self._last_ack_time: Optional[float] = None
        self.batches_sent = 0
        self.batch_log: list[BatchObservation] = []

    # ------------------------------------------------------------ batching
    def _on_enqueue(self, now: float) -> None:
        self._start_batch()

    def _start_batch(self) -> None:
        now = self.env._now
        qdisc = self.qdisc
        batch: list[Packet] = []
        payload = 0
        if qdisc.backlog_packets:
            for _ in range(MAX_BATCH_FRAMES):
                packet = qdisc.dequeue(now)
                if packet is None:
                    break
                batch.append(packet)
                payload += packet.size
        self._busy = bool(batch)
        if not batch:
            return
        bitrate = self.phy_rate.rate_at(now)
        tx_time = payload * 8.0 / bitrate + self._rng.uniform(OVERHEAD_MIN,
                                                              OVERHEAD_MAX)
        self.env.post(tx_time, self._finish_batch, batch, now, bitrate, tx_time)

    def _finish_batch(self, batch: list[Packet], start_time: float,
                      bitrate: float, tx_time: float) -> None:
        env = self.env
        now = env._now
        self.batches_sent += 1
        # Block-ACK inter-arrival time: time since the previous block ACK if
        # the radio stayed busy, otherwise the duration of this batch alone.
        if self._last_ack_time is not None and self._last_ack_time >= start_time:
            inter_ack = now - self._last_ack_time
        else:
            inter_ack = tx_time
        self._last_ack_time = now

        observation = BatchObservation(
            time=now,
            batch_frames=len(batch),
            frame_bits=MTU * 8.0,
            inter_ack_time=inter_ack,
            bitrate_bps=bitrate,
        )
        self.batch_log.append(observation)
        if self.estimator is not None:
            self.estimator.observe_batch(observation)

        routes = self.routes
        for packet in batch:
            self.departure_times.append(now)
            self.departure_bytes.append(packet.size)
            # See RateLink._finish_transmission.
            route = routes.get(packet.flow_id)
            if route and route[2] and (when := now + route[0]) <= env._limit:
                route[1](packet, when)
            else:
                self._forward(packet, route)
        self._start_batch()

    # ------------------------------------------------------------ capacity
    def true_capacity_bps(self, now: float) -> float:
        """Backlogged-link capacity at the current PHY rate and mean overhead:
        the ground truth the estimator is evaluated against in Fig. 5."""
        return backlogged_capacity_bps(self.phy_rate.rate_at(now))

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
