"""The ABC sender: accel/brake window updates and dual-window coexistence.

The sender-side algorithm is deliberately tiny (§3.1.1, §3.1.3):

* on an **accelerate** ACK the window grows by ``1 + 1/w`` packets (the ``1``
  is the multiplicative accel/brake response, the ``1/w`` is the
  additive-increase term that yields fairness, Eq. 3);
* on a **brake** ACK the window shrinks by ``1 − 1/w`` packets;
* updates are byte-based so variable packet sizes and partial ACKs are handled
  naturally (§3.1.1).

For coexistence with non-ABC bottlenecks (§5.1.1) the sender maintains a
second congestion window ``w_nonabc`` driven by Cubic, reacting to drops and
classic ECN marks.  The effective window is the minimum of the two, and both
windows are capped at ``window_cap_factor ×`` the packets in flight so the
idle window cannot grow without bound.
"""

from __future__ import annotations

from typing import Optional

from repro.cc.base import CongestionControl
from repro.cc.cubic import Cubic
from repro.core.params import ABCParams
from repro.simulator.packet import MTU, AckFeedback

#: Initial ``w_abc`` and ``w_nonabc`` (packets).
INITIAL_CWND = 2.0


class ABCWindowControl(CongestionControl):
    """ABC congestion control (sender side).

    Parameters
    ----------
    params:
        Protocol parameters; only ``additive_increase`` and
        ``window_cap_factor`` are used on the sender side.

    The Cubic-driven ``w_nonabc`` window always exists (§5.1.1), on every
    path: the flow behaves like Cubic whenever a non-ABC router is the
    bottleneck, and like pure accel/brake whenever an ABC router is.
    """

    name = "abc"
    uses_abc = True

    def __init__(self, params: Optional[ABCParams] = None):
        super().__init__(initial_cwnd=INITIAL_CWND)
        self.params = params if params is not None else ABCParams()
        self.w_abc = INITIAL_CWND
        self.cubic = Cubic(initial_cwnd=INITIAL_CWND)
        self.accel_acks = 0
        self.brake_acks = 0

    # ------------------------------------------------------------ windows
    @property
    def w_nonabc(self) -> float:
        """The Cubic window tracking non-ABC bottlenecks."""
        return self.cubic.cwnd()

    def cwnd(self) -> float:
        return max(min(self.w_abc, self.w_nonabc), self.min_cwnd())

    def min_cwnd(self) -> float:
        return 1.0

    # ------------------------------------------------------------ feedback
    def on_ack(self, feedback: AckFeedback) -> float:
        """Accel/brake update of ``w_abc`` (Eq. 3), the Cubic update of
        ``w_nonabc``, the window caps, and :meth:`window`, in one call.
        ``max``/``min`` are spelled as comparisons (``min_cwnd`` is the
        constant 1.0 here).
        """
        acked = feedback.bytes_acked / MTU
        w = self.w_abc
        if self.params.additive_increase:
            ai = acked / (w if w > 1.0 else 1.0)
        else:
            ai = 0.0
        if feedback.accel:
            self.accel_acks += 1
            w = w + (acked + ai)
        else:
            self.brake_acks += 1
            w = w - (acked - ai)
        if w < 1.0:
            w = 1.0

        cubic = self.cubic
        cubic.on_ack(feedback)

        # abc_paper.dual_window, inlined: cap both windows at
        # ``window_cap_factor ×`` packets in flight (§5.1.1) so the
        # non-bottleneck window cannot grow unboundedly.  The
        # count includes the packet whose ACK is being processed (the sender
        # removes it from its in-flight set just before invoking the
        # congestion controller), otherwise the cap would bite during normal
        # ACK-clocked growth instead of only when the window is idle.
        in_flight = feedback.packets_in_flight + 1
        cap = self.params.window_cap_factor * (in_flight if in_flight >= 1 else 1)
        if cap < 2.0:
            cap = 2.0
        if w > cap:
            w = cap
        self.w_abc = w
        cw = cubic._cwnd
        if cw > cap:
            cubic._cwnd = cw = cap
        # ABCWindowControl.cwnd, inlined.
        effective = w if w <= cw else cw
        return effective if effective >= 1.0 else 1.0

    def on_loss(self, now: float) -> None:
        self.cubic.on_loss(now)

    def on_timeout(self, now: float) -> None:
        # Losing a whole window of feedback usually means the path is dead or
        # an outage occurred; restart conservatively on both windows.
        self.w_abc = max(self.w_abc / 2.0, self.min_cwnd())
        self.cubic.on_timeout(now)

    # ------------------------------------------------------------ stats
    @property
    def observed_accel_fraction(self) -> float:
        total = self.accel_acks + self.brake_acks
        return self.accel_acks / total if total else 0.0
