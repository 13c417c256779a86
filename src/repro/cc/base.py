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

Optimisation changes: a scheme whose window is ``_cwnd`` ends its ACK with one
:meth:`CongestionControl._floor_cwnd` call (``_clamp()`` and ``window()`` were
five); windows are bit-identical.
"""

from __future__ import annotations

from typing import Optional

from repro.simulator.packet import AckFeedback


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

    def __init__(self, initial_cwnd: float = 10.0):
        self._cwnd = float(initial_cwnd)
        self._min_cwnd = self.min_cwnd()  # a constant of every scheme

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
        :meth:`window` — or None if the scheme ``needs_pacing``.  The next
        ACK restamps ``feedback``: copy what must outlive the call."""
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

    # ------------------------------------------------------------ helpers
    def _clamp(self) -> None:
        if self._cwnd < self.min_cwnd():
            self._cwnd = self.min_cwnd()

    def _floor_cwnd(self) -> float:
        """``_clamp(); return window()`` for a ``cwnd()`` that is ``_cwnd``."""
        cwnd = self._cwnd
        floor = self._min_cwnd
        if cwnd < floor:
            self._cwnd = cwnd = floor
        return cwnd if cwnd >= floor else floor

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} cwnd={self._cwnd:.2f}>"

