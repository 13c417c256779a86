"""VCP — Variable-structure Congestion control Protocol (Xia et al., 2005).

VCP routers measure a load factor over a fixed interval,

    ρ = (λ + κ_q · q / t_ρ) / (γ · C),

quantise it into three levels — low load, high load, overload — and stamp the
level into two bits of the packet header (the worst level along the path
wins).  Senders react once per RTT: multiplicative increase (×1.0625) on low
load, additive increase (+1) on high load and multiplicative decrease (×0.875)
on overload.

The ABC paper (§7, Appendix D) points out that this coarse, fixed-step
feedback is slow on time-varying links (doubling the rate takes ~12 RTTs,
versus 1 RTT for ABC) — behaviour this implementation preserves.  Parameters
follow the VCP paper: α = 1.0, β = 0.875, ξ = 0.0625, κ = 0.25, γ = 0.98.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import CongestionControl
from repro.simulator.packet import MTU, AckFeedback, Packet
from repro.simulator.qdisc import Qdisc

#: Load-factor region codes carried in the two ECN-like bits.
LOW_LOAD, HIGH_LOAD, OVERLOAD = 1, 2, 3

VCP_XI = 0.0625       # MI gain
VCP_ALPHA = 1.0       # AI step (packets per RTT)
VCP_BETA = 0.875      # MD factor
VCP_KAPPA = 0.25      # queue weighting in the load factor
VCP_GAMMA = 0.98      # target utilisation
VCP_INTERVAL = 0.2    # load-factor measurement interval t_rho (200 ms)


class VCPRouterQdisc(Qdisc):
    """VCP router: periodic load-factor measurement and 2-bit marking."""

    name = "vcp"

    def __init__(self, buffer_packets: int = 250):
        super().__init__(buffer_packets=buffer_packets)
        self._interval_start: Optional[float] = None
        self._input_bytes = 0
        self.load_factor = 0.0
        self.region = LOW_LOAD

    def _maybe_update(self, now: float) -> None:
        if self._interval_start is None:
            self._interval_start = now
            return
        elapsed = now - self._interval_start
        if elapsed < VCP_INTERVAL:
            return
        capacity = self._link_capacity(now)
        if capacity > 0:
            arrival_bps = self._input_bytes * 8.0 / elapsed
            queue_bps = VCP_KAPPA * self.backlog_bytes * 8.0 / elapsed
            self.load_factor = (arrival_bps + queue_bps) / (VCP_GAMMA * capacity)
        else:
            self.load_factor = float("inf")
        if self.load_factor < 0.8:
            self.region = LOW_LOAD
        elif self.load_factor < 1.0:
            self.region = HIGH_LOAD
        else:
            self.region = OVERLOAD
        self._interval_start = now
        self._input_bytes = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.backlog_packets >= self.buffer_packets:
            self.dropped_packets += 1
            return False
        self._maybe_update(now)
        self._input_bytes += packet.size
        if "vcp_region" in packet.meta:
            packet.meta["vcp_region"] = max(int(packet.meta["vcp_region"]), self.region)
        # FifoQdisc.enqueue, inlined.
        packet.enqueue_time = now
        self._queue.append(packet)
        self.backlog_bytes += packet.size
        self.backlog_packets += 1
        return True

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
        return packet


class VCPSender(CongestionControl):
    """VCP sender: MI / AI / MD chosen by the echoed load-factor region."""

    name = "vcp"

    def __init__(self):
        super().__init__(initial_cwnd=2.0)
        self._srtt = 0.1
        self._last_md_time = float("-inf")

    def packet_meta(self, now: float) -> dict:
        return {"vcp_region": LOW_LOAD}

    def on_ack(self, feedback: AckFeedback) -> float:
        if feedback.rtt is not None:
            self._srtt = 0.875 * self._srtt + 0.125 * feedback.rtt
        region = int(feedback.meta.get("vcp_region", LOW_LOAD))
        acked_packets = feedback.bytes_acked / MTU
        fraction_of_window = acked_packets / max(self._cwnd, 1.0)
        if region == OVERLOAD:
            # MD at most once per RTT, then freeze until fresh feedback.
            if feedback.now - self._last_md_time > self._srtt:
                self._cwnd = max(self._cwnd * VCP_BETA, self.min_cwnd())
                self._last_md_time = feedback.now
        elif region == HIGH_LOAD:
            # AI: +alpha packets per RTT, spread across the window's ACKs.
            self._cwnd += VCP_ALPHA * fraction_of_window
        else:
            # MI: grow by a factor (1 + xi) per RTT, spread across ACKs.
            self._cwnd += VCP_XI * acked_packets
        return self._floor_cwnd()

    def on_loss(self, now: float) -> None:
        self._cwnd = max(self._cwnd * VCP_BETA, self.min_cwnd())

    def on_timeout(self, now: float) -> None:
        self._cwnd = self.min_cwnd()
