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

Optimisation changes: an MI stores its ``end``, and ``on_ack`` attributes
its ACK inline (the readable rules: ``tests/reference/pcc_vivace.py``) and
concludes a probe pair only when one is due.  Results are bit-identical.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.cc.base import CongestionControl
from repro.simulator.packet import MTU, AckFeedback

#: Starting base rate (bit/s), and the bounds the rate is clamped to.
INITIAL_RATE_BPS = 3e6
MIN_RATE_BPS = 0.2e6
MAX_RATE_BPS = 400e6
#: Probe rates are ``base · (1 ± EPSILON)``; a gradient step moves the base
#: rate by ``STEP_FRACTION`` of itself.
EPSILON = 0.05
STEP_FRACTION = 0.15
#: The utility's latency (b) and loss (c) coefficients.
LATENCY_COEFF = 9.0
LOSS_COEFF = 11.35


class _MonitorInterval:
    """Per-MI measurement bucket, keyed by packet *send* time: it holds the
    ACKs of packets sent in ``[start, end)``."""

    __slots__ = ("start", "duration", "end", "rate_bps", "bytes_acked",
                 "bytes_sent", "losses", "first_rtt", "last_rtt")

    def __init__(self, start: float, duration: float, rate_bps: float):
        self.start = start
        self.duration = duration
        self.end = start + duration
        self.rate_bps = rate_bps
        self.bytes_acked = 0
        self.bytes_sent = 0
        self.losses = 0
        self.first_rtt: Optional[float] = None
        self.last_rtt: Optional[float] = None

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

    def __init__(self):
        super().__init__(initial_cwnd=math.inf)
        self.base_rate = INITIAL_RATE_BPS
        self._srtt = 0.1
        self._mis: List[_MonitorInterval] = []
        self._probe_sign = 1
        self._probe_phase = 0  # 0 → probe up next, 1 → probe down next

    # ------------------------------------------------------------ interface
    def cwnd(self) -> float:
        # Cap in-flight data at twice the rate-delay product so a stale high
        # rate cannot flood a collapsed link indefinitely.
        return max(2.0 * self.base_rate * self._srtt / (MTU * 8.0), 4.0)

    def pacing_rate(self) -> float:
        mis = self._mis
        return mis[-1].rate_bps if mis else self.base_rate

    # ------------------------------------------------------------ MI engine
    def _open_mi(self, now: float) -> _MonitorInterval:
        """Start the next probe MI at ``now`` (the current one has ended)."""
        duration = max(self._srtt, 0.01)
        if self._probe_phase == 0:
            rate = self.base_rate * (1.0 + self._probe_sign * EPSILON)
        else:
            rate = self.base_rate * (1.0 - self._probe_sign * EPSILON)
        current = _MonitorInterval(now, duration, rate)
        self._mis.append(current)
        self._probe_phase = 1 - self._probe_phase
        return current

    def _conclude_finished(self, now: float) -> None:
        """Once a pair of probe MIs has had one RTT to collect results, take
        a gradient step and discard the pair."""
        grace = self._srtt
        while len(self._mis) >= 3 and now >= self._mis[1].end + grace:
            first, second = self._mis[0], self._mis[1]
            up, down = (first, second) if first.rate_bps >= second.rate_bps else (second, first)
            u_up = up.utility(LATENCY_COEFF, LOSS_COEFF)
            u_down = down.utility(LATENCY_COEFF, LOSS_COEFF)
            step = STEP_FRACTION * self.base_rate
            if u_up > u_down:
                self.base_rate += step
            elif u_down > u_up:
                self.base_rate -= step
            self.base_rate = min(max(self.base_rate, MIN_RATE_BPS), MAX_RATE_BPS)
            self._probe_sign = -self._probe_sign
            del self._mis[:2]

    # ------------------------------------------------------------ callbacks
    def on_packet_sent(self, now: float, seq: int, size: int, in_flight: int) -> None:
        mis = self._mis
        if mis and now < mis[-1].end:
            mis[-1].bytes_sent += size
        else:
            self._open_mi(now).bytes_sent += size

    def on_ack(self, feedback: AckFeedback) -> Optional[float]:
        rtt = feedback.rtt
        if rtt is not None:
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        now = feedback.now
        mis = self._mis
        if not mis or now >= mis[-1].end:
            self._open_mi(now)
        # pcc_vivace.find_mi, inlined: the newest MI whose [start, end) holds
        # the send time, searched back until MIs end 4 RTTs before it.
        sent_time = feedback.sent_time
        horizon = sent_time - 4 * self._srtt
        for mi in reversed(mis):
            if mi.start <= sent_time < mi.end:
                # pcc_vivace.observe_ack, inlined.
                mi.bytes_acked += feedback.bytes_acked
                if rtt is not None:
                    if mi.first_rtt is None:
                        mi.first_rtt = rtt
                    mi.last_rtt = rtt
                break
            if mi.end <= horizon:
                break
        if feedback.ece:
            self.on_loss(now)
        if len(mis) >= 3 and now >= mis[1].end + self._srtt:
            self._conclude_finished(now)

    def on_loss(self, now: float) -> None:
        mis = self._mis
        if mis:
            mis[-1].losses += 1

    def on_timeout(self, now: float) -> None:
        self.base_rate = max(self.base_rate / 2.0, MIN_RATE_BPS)
        self._mis.clear()
