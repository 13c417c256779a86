"""Congestion-control interface shared by ABC, the end-to-end baselines and
the explicit-feedback baselines.

The :class:`~repro.simulator.endpoints.Sender` drives a congestion controller
through this interface:

* window-based schemes expose :meth:`CongestionControl.cwnd` and are
  ACK-clocked: each ACK is one ``on_ack`` call, which returns the effective
  window (:meth:`CongestionControl.window`) that the sender then fills;
* paced schemes (``needs_pacing``: BBR, PCC-Vivace, RCP) also expose
  :meth:`CongestionControl.pacing_rate`; the sender paces at that rate, still
  bounded by the window, and their ``on_ack`` returns None.

All callbacks receive plain data (:class:`~repro.simulator.packet.AckFeedback`)
rather than simulator objects, which keeps the algorithms unit-testable without
an event loop.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.simulator.packet import MTU, AckFeedback


class CongestionControl:
    """Base class for all congestion-control algorithms.

    Subclasses override the ``on_*`` callbacks they care about; the defaults
    change nothing.  ``cwnd`` is expressed in packets (floats are
    fine — the sender floors it when gating transmissions).
    """

    #: Human-readable scheme name used in experiment tables.
    name = "base"
    #: True when the scheme's data packets should carry ABC accel markings and
    #: be steered into the ABC queue by ABC routers.
    uses_abc = False
    #: True when the scheme relies on pacing rather than pure ACK clocking.
    needs_pacing = False

    def __init__(self, mss: int = MTU, initial_cwnd: float = 10.0):
        self.mss = mss
        self._cwnd = float(initial_cwnd)

    # ------------------------------------------------------------ interface
    def cwnd(self) -> float:
        """Current congestion window in packets."""
        return self._cwnd

    def pacing_rate(self) -> Optional[float]:
        """Pacing rate in bits per second, or None for pure ACK clocking."""
        return None

    def window(self) -> float:
        """The effective window, ``max(cwnd(), min_cwnd())``."""
        cwnd = self.cwnd()
        floor = self.min_cwnd()
        return cwnd if cwnd >= floor else floor

    def on_ack(self, feedback: AckFeedback) -> Optional[float]:
        """Update the scheme for one (non-duplicate) ACK and return
        :meth:`window` — or None if the scheme ``needs_pacing``."""
        return self.window()

    def on_loss(self, now: float) -> None:
        """Called once per loss event (fast-retransmit style)."""

    def on_timeout(self, now: float) -> None:
        """Called on a retransmission timeout."""

    def on_packet_sent(self, now: float, seq: int, size: int, in_flight: int) -> None:
        """Called whenever the sender transmits a data packet."""

    def packet_meta(self, now: float) -> dict:
        """In-band header fields stamped on outgoing packets.

        Explicit schemes that need multi-bit per-packet state (XCP, RCP, VCP)
        override this; ABC's whole point is that it does not need to.
        """
        return {}

    def min_cwnd(self) -> float:
        """Lower bound enforced by the sender (packets)."""
        return 1.0

    def clamp_to(self, cap: float) -> None:
        """Upper-bound the window (used by the ABC dual-window cap, §5.1.1)."""
        if self._cwnd > cap:
            self._cwnd = max(cap, self.min_cwnd())

    # ------------------------------------------------------------ helpers
    def _clamp(self) -> None:
        if self._cwnd < self.min_cwnd():
            self._cwnd = self.min_cwnd()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} cwnd={self._cwnd:.2f}>"


class AIMD(CongestionControl):
    """Textbook additive-increase / multiplicative-decrease controller.

    Not evaluated in the paper directly, but useful both as the simplest
    sanity-check workload for the simulator and as the base class for NewReno.
    """

    name = "aimd"

    def __init__(self, mss: int = MTU, initial_cwnd: float = 2.0,
                 additive_increase: float = 1.0, beta: float = 0.5,
                 ssthresh: float = math.inf):
        super().__init__(mss=mss, initial_cwnd=initial_cwnd)
        self.additive_increase = additive_increase
        self.beta = beta
        self.ssthresh = ssthresh

    def on_ack(self, feedback: AckFeedback) -> float:
        acked_packets = feedback.bytes_acked / self.mss
        if self._cwnd < self.ssthresh:
            self._cwnd += acked_packets  # slow start
        else:
            self._cwnd += self.additive_increase * acked_packets / max(self._cwnd, 1.0)
        if feedback.ece:
            self.on_loss(feedback.now)
        return self.window()

    def on_loss(self, now: float) -> None:
        self.ssthresh = max(self._cwnd * self.beta, 2.0)
        self._cwnd = self.ssthresh
        self._clamp()

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self._cwnd * self.beta, 2.0)
        self._cwnd = self.min_cwnd()
