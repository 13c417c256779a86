"""XCP (Katabi, Handley & Rohrs, SIGCOMM 2002) and the paper's XCPw variant.

XCP routers compute an aggregate feedback

    φ = α · d · (C − y) − β · Q

once per control interval (the average RTT ``d``), where ``y`` is the input
traffic rate and ``Q`` the persistent queue.  The feedback is apportioned to
individual packets — positive feedback proportional to ``rtt²·s/cwnd`` and
negative feedback proportional to ``rtt·s`` — and carried in a congestion
header that senders add to their window on each ACK.

The paper's key observation (§6.3) is that computing φ only once per RTT is
too slow for wireless links whose capacity changes within an RTT.  Its
improved variant **XCPw** recomputes the aggregate feedback on *every* packet
from sliding-window measurements of the last RTT; this reduces delay but still
trails ABC because the enqueue-rate basis lags capacity changes (cf. Fig. 2).
Setting ``wireless=True`` selects XCPw.

Fairness shuffling (the bandwidth-shuffling term of the full XCP fairness
controller) is omitted because every XCP experiment reproduced here is
single-flow.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.cc.base import CongestionControl
from repro.simulator.estimators import WindowedRateEstimator
from repro.simulator.packet import MTU, AckFeedback, Packet
from repro.simulator.qdisc import Qdisc

#: Stable gain values from the XCP paper, also used by the ABC paper (§6.3).
XCP_ALPHA = 0.55
XCP_BETA = 0.4
#: The RTT (s) assumed for packets that carry none, and the first control
#: interval (and XCPw's input-rate window).
XCP_DEFAULT_RTT = 0.1


class XCPRouterQdisc(Qdisc):
    """XCP router: aggregate feedback + per-packet apportioning."""

    name = "xcp"

    def __init__(self, buffer_packets: int = 250, wireless: bool = False):
        super().__init__(buffer_packets=buffer_packets)
        self.wireless = wireless

        self._interval_start: Optional[float] = None
        self._interval_length = XCP_DEFAULT_RTT
        # Per-interval accumulators (classic XCP).
        self._input_bytes = 0
        self._sum_rtt_bytes = 0.0          # Σ rtt_i · s_i
        self._sum_rtt_sq_bytes_per_cwnd = 0.0  # Σ rtt_i²·s_i / cwnd_i
        self._sum_rtt_weighted = 0.0       # Σ rtt_i · s_i (for avg RTT)
        self._min_queue_bytes = 0
        # Results of the previous interval, used to scale this interval's
        # per-packet feedback.
        self._phi_bytes = 0.0
        self._scale_pos = 0.0
        self._scale_neg = 0.0
        # Sliding-window measurements for the wireless (per-packet) variant.
        self._input_rate = WindowedRateEstimator(window=XCP_DEFAULT_RTT)
        self.last_phi = 0.0

    # ------------------------------------------------------------ intervals
    def _maybe_roll_interval(self, now: float) -> None:
        if self._interval_start is None:
            self._interval_start = now
            self._min_queue_bytes = self.backlog_bytes
            return
        if now - self._interval_start < self._interval_length:
            return
        elapsed = now - self._interval_start
        capacity = self._link_capacity(now)
        input_rate = self._input_bytes * 8.0 / elapsed
        avg_rtt = (self._sum_rtt_weighted / self._input_bytes
                   if self._input_bytes > 0 else XCP_DEFAULT_RTT)
        avg_rtt = max(avg_rtt, 1e-3)
        spare_bps = capacity - input_rate
        phi_bits = (XCP_ALPHA * avg_rtt * spare_bps
                    - XCP_BETA * self._min_queue_bytes * 8.0)
        self._phi_bytes = phi_bits / 8.0
        self.last_phi = self._phi_bytes
        # Scaling denominators from this interval drive next interval's
        # per-packet apportioning (Σ over the packets seen in this interval).
        self._scale_pos = self._sum_rtt_sq_bytes_per_cwnd
        self._scale_neg = self._sum_rtt_bytes
        # Reset accumulators.
        self._interval_length = avg_rtt
        self._interval_start = now
        self._input_bytes = 0
        self._sum_rtt_bytes = 0.0
        self._sum_rtt_sq_bytes_per_cwnd = 0.0
        self._sum_rtt_weighted = 0.0
        self._min_queue_bytes = self.backlog_bytes

    def _instant_phi_bytes(self, now: float, rtt: float) -> float:
        """XCPw: recompute aggregate feedback from sliding-window state."""
        capacity = self._link_capacity(now)
        input_rate = self._input_rate.rate_bps(now)
        spare_bps = capacity - input_rate
        phi_bits = (XCP_ALPHA * rtt * spare_bps
                    - XCP_BETA * self.backlog_bytes * 8.0)
        self.last_phi = phi_bits / 8.0
        return self.last_phi

    # ------------------------------------------------------------ queue ops
    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.backlog_packets >= self.buffer_packets:
            self.dropped_packets += 1
            return False
        self._maybe_roll_interval(now)
        rtt = float(packet.meta.get("xcp_rtt", XCP_DEFAULT_RTT))
        cwnd_bytes = max(float(packet.meta.get("xcp_cwnd_bytes", packet.size)), packet.size)
        self._input_bytes += packet.size
        self._input_rate.add(now, packet.size)
        self._sum_rtt_bytes += rtt * packet.size
        self._sum_rtt_weighted += rtt * packet.size
        self._sum_rtt_sq_bytes_per_cwnd += rtt * rtt * packet.size / cwnd_bytes
        self._min_queue_bytes = min(self._min_queue_bytes, self.backlog_bytes)
        self._annotate(packet, now, rtt, cwnd_bytes)
        # FifoQdisc.enqueue, inlined.
        packet.enqueue_time = now
        self._queue.append(packet)
        self.backlog_bytes += packet.size
        self.backlog_packets += 1
        return True

    def _annotate(self, packet: Packet, now: float, rtt: float,
                  cwnd_bytes: float) -> None:
        """Write the per-packet feedback into the congestion header."""
        if "xcp_feedback_bytes" not in packet.meta:
            # Only XCP-speaking packets carry the header.
            return
        if self.wireless:
            # XCPw: spread the instantaneous aggregate feedback over the bytes
            # expected within one RTT, proportionally to packet size.  This
            # keeps the per-packet reaction immediate without the classic
            # per-interval scaling sums (which are meaningless mid-interval).
            phi = self._instant_phi_bytes(now, rtt)
            rtt_bytes = max(self._input_rate.rate_bps(now) * rtt / 8.0,
                            float(packet.size))
            feedback = phi * packet.size / rtt_bytes
        else:
            phi = self._phi_bytes
            scale_pos = max(self._scale_pos, 1e-9)
            scale_neg = max(self._scale_neg, 1e-9)
            if phi >= 0:
                share = (rtt * rtt * packet.size / cwnd_bytes) / scale_pos
                feedback = phi * share
            else:
                share = (rtt * packet.size) / scale_neg
                feedback = phi * share
        current = float(packet.meta.get("xcp_feedback_bytes", math.inf))
        packet.meta["xcp_feedback_bytes"] = min(current, feedback)

    def dequeue(self, now: float) -> Optional[Packet]:
        self._maybe_roll_interval(now)
        # FifoQdisc.dequeue, inlined.
        if not self._queue:
            return None
        packet = self._queue.popleft()
        if now > packet.enqueue_time:
            packet.total_queuing_delay += now - packet.enqueue_time
        self.backlog_bytes -= packet.size
        self.backlog_packets -= 1
        return packet


class XCPSender(CongestionControl):
    """XCP sender: obeys the per-packet window feedback echoed in ACKs."""

    name = "xcp"

    def __init__(self):
        super().__init__(initial_cwnd=2.0)
        self._srtt = 0.1

    def packet_meta(self, now: float) -> dict:
        return {
            "xcp_rtt": self._srtt,
            "xcp_cwnd_bytes": self._cwnd * MTU,
            # Request an aggressive increase; routers reduce it to what the
            # path can support (the header starts effectively unbounded).
            "xcp_feedback_bytes": float(MTU),
        }

    def on_ack(self, feedback: AckFeedback) -> float:
        if feedback.rtt is not None:
            self._srtt = 0.875 * self._srtt + 0.125 * feedback.rtt
        delta_bytes = float(feedback.meta.get("xcp_feedback_bytes", 0.0))
        if math.isinf(delta_bytes):
            delta_bytes = 0.0
        self._cwnd += delta_bytes / MTU
        return self._floor_cwnd()

    def on_loss(self, now: float) -> None:
        self._cwnd = max(self._cwnd / 2.0, self.min_cwnd())

    def on_timeout(self, now: float) -> None:
        self._cwnd = self.min_cwnd()
