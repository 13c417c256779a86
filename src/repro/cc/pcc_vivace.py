"""PCC Vivace (Dong et al., NSDI 2018), latency flavour, simplified.

Vivace is an online-learning rate controller: time is divided into monitor
intervals (MIs) of roughly one RTT; in each MI the sender measures throughput,
the RTT gradient and the loss rate, evaluates the utility function

    U(r) = r^0.9 − b · r · (dRTT/dt) − c · r · loss_rate

(rates in Mbit/s) and performs gradient-ascent steps on the rate.  The sender
alternates slightly higher and slightly lower probe rates and moves in the
direction whose utility was larger.  Results are attributed to the MI in which
the corresponding *data packet was sent* — attributing by ACK arrival time
would shift every measurement one RTT late and invert the learnt gradient.

The paper evaluates "PCC Vivace-Latency" and finds that — like Cubic and BBR —
it sustains high throughput but builds large queues on variable cellular links
(Figs. 8–10).  This implementation keeps the utility function and the
alternating probe structure but simplifies Vivace's confidence amplification
and dynamic change boundaries.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.cc.base import CongestionControl
from repro.simulator.packet import MTU, AckFeedback


class _MonitorInterval:
    """Per-MI measurement bucket, keyed by packet *send* time."""

    def __init__(self, start: float, duration: float, rate_bps: float):
        self.start = start
        self.duration = duration
        self.rate_bps = rate_bps
        self.bytes_acked = 0
        self.bytes_sent = 0
        self.losses = 0
        self.first_rtt: Optional[float] = None
        self.last_rtt: Optional[float] = None

    @property
    def end(self) -> float:
        return self.start + self.duration

    def contains(self, sent_time: float) -> bool:
        return self.start <= sent_time < self.end

    def observe_ack(self, feedback: AckFeedback) -> None:
        self.bytes_acked += feedback.bytes_acked
        if feedback.rtt is not None:
            if self.first_rtt is None:
                self.first_rtt = feedback.rtt
            self.last_rtt = feedback.rtt

    def utility(self, b: float, c: float) -> float:
        throughput_mbps = self.bytes_acked * 8.0 / self.duration / 1e6
        if self.first_rtt is not None and self.last_rtt is not None:
            rtt_gradient = (self.last_rtt - self.first_rtt) / self.duration
        else:
            rtt_gradient = 0.0
        sent = max(self.bytes_sent, 1)
        loss_rate = min(self.losses * MTU / sent, 1.0)
        return (throughput_mbps ** 0.9
                - b * throughput_mbps * max(rtt_gradient, 0.0)
                - c * throughput_mbps * loss_rate)


class PCCVivace(CongestionControl):
    """Rate-based online-learning congestion control (Vivace-latency)."""

    name = "pcc"
    needs_pacing = True

    def __init__(self, mss: int = MTU, initial_rate_bps: float = 3e6,
                 epsilon: float = 0.05, step_fraction: float = 0.15,
                 latency_coeff: float = 9.0, loss_coeff: float = 11.35,
                 min_rate_bps: float = 0.2e6, max_rate_bps: float = 400e6):
        super().__init__(mss=mss, initial_cwnd=math.inf)
        self.base_rate = initial_rate_bps
        self.epsilon = epsilon
        self.step_fraction = step_fraction
        self.latency_coeff = latency_coeff
        self.loss_coeff = loss_coeff
        self.min_rate = min_rate_bps
        self.max_rate = max_rate_bps

        self._srtt = 0.1
        self._mis: List[_MonitorInterval] = []
        self._probe_sign = 1
        self._probe_phase = 0  # 0 → probe up next, 1 → probe down next

    # ------------------------------------------------------------ interface
    def cwnd(self) -> float:
        # Cap in-flight data at twice the rate-delay product so a stale high
        # rate cannot flood a collapsed link indefinitely.
        return max(2.0 * self.base_rate * self._srtt / (self.mss * 8.0), 4.0)

    def pacing_rate(self) -> float:
        mi = self._current_mi()
        return mi.rate_bps if mi is not None else self.base_rate

    # ------------------------------------------------------------ MI engine
    def _current_mi(self) -> Optional[_MonitorInterval]:
        return self._mis[-1] if self._mis else None

    def _probe_rate(self) -> float:
        if self._probe_phase == 0:
            return self.base_rate * (1.0 + self._probe_sign * self.epsilon)
        return self.base_rate * (1.0 - self._probe_sign * self.epsilon)

    def _ensure_mi(self, now: float) -> _MonitorInterval:
        current = self._current_mi()
        if current is None or now >= current.end:
            duration = max(self._srtt, 0.01)
            current = _MonitorInterval(now, duration, self._probe_rate())
            self._mis.append(current)
            self._probe_phase = 1 - self._probe_phase
        return current

    def _find_mi(self, sent_time: float) -> Optional[_MonitorInterval]:
        for mi in reversed(self._mis):
            if mi.contains(sent_time):
                return mi
            if mi.end <= sent_time - 4 * self._srtt:
                break
        return None

    def _conclude_finished(self, now: float) -> None:
        """Once a pair of probe MIs has had one RTT to collect results, take
        a gradient step and discard the pair."""
        grace = self._srtt
        while len(self._mis) >= 3 and now >= self._mis[1].end + grace:
            first, second = self._mis[0], self._mis[1]
            up, down = (first, second) if first.rate_bps >= second.rate_bps else (second, first)
            u_up = up.utility(self.latency_coeff, self.loss_coeff)
            u_down = down.utility(self.latency_coeff, self.loss_coeff)
            step = self.step_fraction * self.base_rate
            if u_up > u_down:
                self.base_rate += step
            elif u_down > u_up:
                self.base_rate -= step
            self.base_rate = min(max(self.base_rate, self.min_rate), self.max_rate)
            self._probe_sign = -self._probe_sign
            del self._mis[:2]

    # ------------------------------------------------------------ callbacks
    def on_packet_sent(self, now: float, seq: int, size: int, in_flight: int) -> None:
        mi = self._ensure_mi(now)
        mi.bytes_sent += size

    def on_ack(self, feedback: AckFeedback) -> Optional[float]:
        if feedback.rtt is not None:
            self._srtt = 0.875 * self._srtt + 0.125 * feedback.rtt
        self._ensure_mi(feedback.now)
        mi = self._find_mi(feedback.sent_time)
        if mi is not None:
            mi.observe_ack(feedback)
        if feedback.ece:
            self.on_loss(feedback.now)
        self._conclude_finished(feedback.now)

    def on_loss(self, now: float) -> None:
        mi = self._current_mi()
        if mi is not None:
            mi.losses += 1

    def on_timeout(self, now: float) -> None:
        self.base_rate = max(self.base_rate / 2.0, self.min_rate)
        self._mis.clear()
