"""PIE (Proportional Integral controller Enhanced) AQM, RFC 8033.

PIE drops (or ECN-marks) packets probabilistically at enqueue time.  The drop
probability is updated every ``T_UPDATE`` seconds by a proportional-integral
controller driven by the estimated queuing delay:

    p += ALPHA * (delay - TARGET) + BETA * (delay - delay_old)

with the RFC's auto-scaling of ``ALPHA``/``BETA`` when ``p`` is small and its
burst-allowance logic.  The paper evaluates "Cubic+PIE" as an AQM baseline.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.simulator.packet import Packet, apply_ce
from repro.simulator.qdisc import Qdisc

#: RFC 8033's defaults: the queue-delay target and the update period (s),
#: the PI gains, and the burst allowance (s).
TARGET = 0.015
T_UPDATE = 0.015
ALPHA = 0.125
BETA = 1.25
MAX_BURST = 0.15
#: CE-mark an ECN-capable packet instead of dropping it while the drop
#: probability is below 10 % (RFC 8033 §5.1; no cell the repo runs sets it).
ECN_MARKING = False


class PIEQdisc(Qdisc):
    """PIE AQM over a FIFO queue."""

    name = "pie"

    def __init__(self, buffer_packets: int = 250, seed: int = 0):
        super().__init__(buffer_packets=buffer_packets)
        self._rng = random.Random(seed)

        self.drop_prob = 0.0
        self._qdelay_old = 0.0
        self._burst_allowance = MAX_BURST
        self._last_update: Optional[float] = None
        self._avg_dq_rate_bps = 0.0
        self._dq_start: Optional[float] = None
        self._dq_bytes = 0

    # ------------------------------------------------------------ update
    def _estimate_delay(self, now: float) -> float:
        """Little's-law queue-delay estimate from the departure-rate EWMA."""
        if self._avg_dq_rate_bps > 0:
            return self.backlog_bytes * 8.0 / self._avg_dq_rate_bps
        rate = self._link_capacity(now)
        if rate > 0:
            return self.backlog_bytes * 8.0 / rate
        return 0.0

    def _maybe_update(self, now: float) -> None:
        if self._last_update is None:
            self._last_update = now
            return
        while now - self._last_update >= T_UPDATE:
            self._last_update += T_UPDATE
            self._update_probability(now)

    def _update_probability(self, now: float) -> None:
        qdelay = self._estimate_delay(now)
        p = (ALPHA * (qdelay - TARGET)
             + BETA * (qdelay - self._qdelay_old))
        # RFC 8033 auto-tuning: scale the adjustment down when drop_prob is
        # small so the controller does not overshoot.
        if self.drop_prob < 0.000001:
            p /= 2048
        elif self.drop_prob < 0.00001:
            p /= 512
        elif self.drop_prob < 0.0001:
            p /= 128
        elif self.drop_prob < 0.001:
            p /= 32
        elif self.drop_prob < 0.01:
            p /= 8
        elif self.drop_prob < 0.1:
            p /= 2
        self.drop_prob = min(max(self.drop_prob + p, 0.0), 1.0)
        if qdelay < TARGET / 2 and self._qdelay_old < TARGET / 2:
            self.drop_prob *= 0.98
        self._qdelay_old = qdelay
        if self._burst_allowance > 0:
            self._burst_allowance = max(self._burst_allowance - T_UPDATE, 0.0)

    # ------------------------------------------------------------ enqueue
    def _should_mark(self, now: float) -> bool:
        if self._burst_allowance > 0:
            return False
        qdelay = self._estimate_delay(now)
        if qdelay < TARGET / 2 and self.drop_prob < 0.2:
            return False
        if self.backlog_packets <= 2:
            return False
        return self._rng.random() < self.drop_prob

    def enqueue(self, packet: Packet, now: float) -> bool:
        self._maybe_update(now)
        if self.backlog_packets >= self.buffer_packets:
            self.dropped_packets += 1
            return False
        if self._should_mark(now):
            if (ECN_MARKING and packet.ecn.is_ecn_capable
                    and self.drop_prob < 0.1):
                packet.ecn = apply_ce(packet.ecn)
                self.marked_packets += 1
            else:
                self.dropped_packets += 1
                return False
        # FifoQdisc.enqueue, inlined.
        packet.enqueue_time = now
        self._queue.append(packet)
        self.backlog_bytes += packet.size
        self.backlog_packets += 1
        return True

    # ------------------------------------------------------------ dequeue
    def dequeue(self, now: float) -> Optional[Packet]:
        self._maybe_update(now)
        # FifoQdisc.dequeue, inlined.
        if not self._queue:
            return None
        packet = self._queue.popleft()
        if now > packet.enqueue_time:
            packet.total_queuing_delay += now - packet.enqueue_time
        self.backlog_bytes -= packet.size
        self.backlog_packets -= 1
        # Departure-rate estimation (simplified from RFC 8033 §5.3): EWMA of
        # the instantaneous drain rate measured over dequeue bursts.
        if self._dq_start is None:
            self._dq_start = now
            self._dq_bytes = packet.size
        else:
            self._dq_bytes += packet.size
            span = now - self._dq_start
            if span >= 0.01 and self._dq_bytes > 0:
                rate = self._dq_bytes * 8.0 / span
                if self._avg_dq_rate_bps == 0.0:
                    self._avg_dq_rate_bps = rate
                else:
                    self._avg_dq_rate_bps = 0.9 * self._avg_dq_rate_bps + 0.1 * rate
                self._dq_start = now
                self._dq_bytes = 0
        return packet
