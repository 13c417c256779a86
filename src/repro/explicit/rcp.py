"""RCP (Rate Control Protocol, Dukkipati et al.), simplified single-rate form.

An RCP router advertises one rate ``R`` to every flow traversing it.  The rate
is updated once per control interval ``T`` (≈ the average RTT ``d``):

    R ← R · [ 1 + (T/d) · ( α·(C − y) − β·q/d ) / C ]

where ``y`` is the measured input rate and ``q`` the queue size.  Senders set
their sending rate to the smallest advertised ``R`` along the path.

Because RCP is *rate* based, it reacts a full control interval (plus the time
to drain queues) after a capacity drop and over-corrects afterwards, which is
the sluggishness Fig. 17b shows and why ABC achieves ~20 % more utilisation on
cellular traces (Appendix D).  The ABC paper uses α = 0.5, β = 0.25.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cc.base import CongestionControl
from repro.simulator.packet import MTU, AckFeedback, Packet
from repro.simulator.qdisc import Qdisc

RCP_ALPHA = 0.5
RCP_BETA = 0.25
#: The RTT (s) assumed for packets that carry none, and before any arrive.
RCP_DEFAULT_RTT = 0.1
#: A sender's rate (bit/s) before the first advertised rate reaches it.
RCP_INITIAL_RATE_BPS = 1e6


class RCPRouterQdisc(Qdisc):
    """RCP router: periodic advertised-rate computation."""

    name = "rcp"

    def __init__(self, buffer_packets: int = 250):
        super().__init__(buffer_packets=buffer_packets)
        self.rate_bps = 1e6
        self._interval_start: Optional[float] = None
        self._input_bytes = 0
        self._sum_rtt_weighted = 0.0
        self.last_avg_rtt = RCP_DEFAULT_RTT

    def _maybe_update_rate(self, now: float) -> None:
        if self._interval_start is None:
            self._interval_start = now
            return
        interval = max(self.last_avg_rtt, 0.01)
        elapsed = now - self._interval_start
        if elapsed < interval:
            return
        capacity = self._link_capacity(now)
        if capacity <= 0:
            self._interval_start = now
            self._input_bytes = 0
            self._sum_rtt_weighted = 0.0
            return
        input_rate = self._input_bytes * 8.0 / elapsed
        avg_rtt = (self._sum_rtt_weighted / self._input_bytes
                   if self._input_bytes > 0 else RCP_DEFAULT_RTT)
        avg_rtt = max(avg_rtt, 1e-3)
        self.last_avg_rtt = avg_rtt
        queue_bits = self.backlog_bytes * 8.0
        adjustment = (RCP_ALPHA * (capacity - input_rate)
                      - RCP_BETA * queue_bits / avg_rtt)
        factor = 1.0 + (elapsed / avg_rtt) * adjustment / capacity
        # Keep the advertised rate within sane bounds: never below a probing
        # floor (so an outage cannot pin the rate at zero forever) and never
        # above twice the current capacity estimate.
        ceiling = max(2.0 * capacity, 2e5)
        self.rate_bps = min(max(self.rate_bps * factor, 1e5), ceiling)
        self._interval_start = now
        self._input_bytes = 0
        self._sum_rtt_weighted = 0.0

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.backlog_packets >= self.buffer_packets:
            self.dropped_packets += 1
            return False
        self._maybe_update_rate(now)
        rtt = float(packet.meta.get("rcp_rtt", RCP_DEFAULT_RTT))
        self._input_bytes += packet.size
        self._sum_rtt_weighted += rtt * packet.size
        if "rcp_rate_bps" in packet.meta:
            packet.meta["rcp_rate_bps"] = min(
                float(packet.meta["rcp_rate_bps"]), self.rate_bps)
        # FifoQdisc.enqueue, inlined.
        packet.enqueue_time = now
        self._queue.append(packet)
        self.backlog_bytes += packet.size
        self.backlog_packets += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        self._maybe_update_rate(now)
        # FifoQdisc.dequeue, inlined.
        if not self._queue:
            return None
        packet = self._queue.popleft()
        if now > packet.enqueue_time:
            packet.total_queuing_delay += now - packet.enqueue_time
        self.backlog_bytes -= packet.size
        self.backlog_packets -= 1
        return packet


class RCPSender(CongestionControl):
    """Rate-based sender that paces at the advertised RCP rate."""

    name = "rcp"
    needs_pacing = True

    def __init__(self):
        super().__init__(initial_cwnd=4.0)
        self.rate_bps = RCP_INITIAL_RATE_BPS
        self._srtt = 0.1

    def packet_meta(self, now: float) -> dict:
        return {
            "rcp_rtt": self._srtt,
            "rcp_rate_bps": math.inf,
        }

    def pacing_rate(self) -> float:
        return self.rate_bps

    def cwnd(self) -> float:
        # Cap in-flight data at twice the rate-delay product so a stale rate
        # cannot keep flooding a link whose capacity collapsed.
        return max(2.0 * self.rate_bps * self._srtt / (MTU * 8.0), 4.0)

    def on_ack(self, feedback: AckFeedback) -> Optional[float]:
        if feedback.rtt is not None:
            self._srtt = 0.875 * self._srtt + 0.125 * feedback.rtt
        advertised = feedback.meta.get("rcp_rate_bps")
        if advertised is not None and math.isfinite(advertised):
            self.rate_bps = max(float(advertised), 1e4)

    def on_loss(self, now: float) -> None:
        pass

    def on_timeout(self, now: float) -> None:
        self.rate_bps = max(self.rate_bps / 2.0, 1e4)
