"""Copa (Arun & Balakrishnan, NSDI 2018), simplified default mode.

Copa targets a sending rate of ``1 / (δ · d_q)`` where ``d_q`` is the queuing
delay measured as ``RTT_standing − RTT_min``.  Each ACK moves the window
towards the target by ``v / (δ · cwnd)`` packets, where the velocity ``v``
doubles while the window keeps moving in one direction.  The paper finds Copa
achieves low delay but underutilises fast-varying cellular links, similar to
Cubic+Codel (Figs. 8–10).

The TCP-competitive mode switch is omitted (all Copa experiments in the paper
are single-flow or Copa-vs-ABC on an ABC bottleneck, where default mode is the
relevant behaviour).
"""

from __future__ import annotations

from repro.cc.base import CongestionControl
from repro.simulator.estimators import WindowedMinMax
from repro.simulator.packet import MTU, AckFeedback

#: Copa's δ: the target rate is 1 / (δ · queuing delay) packets per second.
DELTA = 0.5
#: Window (s) of the min-RTT filter.
RTT_MIN_WINDOW = 10.0


class Copa(CongestionControl):
    """Copa congestion control (default mode)."""

    name = "copa"

    def __init__(self):
        super().__init__(initial_cwnd=4.0)
        self.rtt_min = WindowedMinMax(window=RTT_MIN_WINDOW, mode="min")
        self.rtt_standing = WindowedMinMax(window=0.05, mode="min")
        self.velocity = 1.0
        self._direction = 0
        self._last_velocity_update = 0.0
        self._srtt = 0.1

    def _update_standing_window(self) -> None:
        # RTT_standing is the min RTT over the last srtt/2.
        self.rtt_standing.window = max(self._srtt / 2.0, 0.01)

    def on_ack(self, feedback: AckFeedback) -> float:
        now = feedback.now
        if feedback.rtt is not None:
            self._srtt = 0.875 * self._srtt + 0.125 * feedback.rtt
            self.rtt_min.update(now, feedback.rtt)
            self._update_standing_window()
            self.rtt_standing.update(now, feedback.rtt)
        if feedback.ece:
            self.on_loss(now)
            return self.window()

        rtt_min = self.rtt_min.get(default=self._srtt)
        rtt_standing = self.rtt_standing.query(now, default=self._srtt)
        queuing_delay = max(rtt_standing - rtt_min, 0.0)
        acked_packets = feedback.bytes_acked / MTU

        if queuing_delay <= 1e-6:
            # Empty queue: the target rate is unbounded, so increase.
            increasing = True
        else:
            target_rate_pps = 1.0 / (DELTA * queuing_delay)
            current_rate_pps = self._cwnd / max(rtt_standing, 1e-6)
            increasing = current_rate_pps <= target_rate_pps

        direction = 1 if increasing else -1
        if direction != self._direction:
            self._direction = direction
            self.velocity = 1.0
            self._last_velocity_update = now
        elif now - self._last_velocity_update >= self._srtt:
            # Velocity doubles at most once per RTT while the window keeps
            # moving in the same direction (Copa §2.2).
            self.velocity = min(self.velocity * 2.0, 2 ** 6)
            self._last_velocity_update = now

        step = self.velocity * acked_packets / (DELTA * max(self._cwnd, 1.0))
        self._cwnd += step if increasing else -step
        return self._floor_cwnd()

    def on_loss(self, now: float) -> None:
        self.velocity = 1.0
        self._direction = 0
        self._cwnd = max(self._cwnd / 2.0, self.min_cwnd())

    def on_timeout(self, now: float) -> None:
        self.velocity = 1.0
        self._direction = 0
        self._cwnd = self.min_cwnd()

    def min_cwnd(self) -> float:
        return 2.0
