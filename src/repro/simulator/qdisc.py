"""Queueing-discipline interface and the basic FIFO implementation.

A :class:`Qdisc` sits between a router and its outgoing link.  The link calls
:meth:`Qdisc.enqueue` when a packet arrives and :meth:`Qdisc.dequeue` whenever
it has a transmission opportunity.  AQMs (CoDel, PIE, RED), ABC and the
explicit-feedback baselines are all implemented as qdiscs, which mirrors the
paper's Linux implementation of ABC as a qdisc kernel module (§6.1).

Qdiscs that need to know the link's capacity (ABC, XCP, RCP, VCP) receive the
owning link through :meth:`Qdisc.attach`; they query
``link.capacity_bps(now)`` when computing feedback.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.simulator.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.simulator.link import Link


class Qdisc:
    """Base class for queueing disciplines.

    Subclasses must implement :meth:`enqueue` and :meth:`dequeue` and keep
    :attr:`backlog_bytes` / :attr:`backlog_packets` consistent; the helpers
    :meth:`_push` and :meth:`_pop` do the bookkeeping for simple FIFO-organised
    qdiscs.
    """

    def __init__(self, buffer_packets: int = 250):
        if buffer_packets <= 0:
            raise ValueError("buffer_packets must be positive")
        self.buffer_packets = buffer_packets
        self.backlog_bytes = 0
        self.backlog_packets = 0
        self.dropped_packets = 0
        self.marked_packets = 0
        self.link: Optional["Link"] = None
        self._queue: deque[Packet] = deque()

    # ------------------------------------------------------------ wiring
    def attach(self, link: Optional["Link"]) -> None:
        """Called by the owning link before the simulation starts, and with
        ``None`` by the scenario once its run is over (``link`` ↔ ``qdisc``
        is a reference cycle)."""
        self.link = link

    @property
    def now(self) -> float:
        if self.link is None:
            return 0.0
        return self.link.env.now

    # ------------------------------------------------------------ interface
    def enqueue(self, packet: Packet, now: float) -> bool:
        """Admit ``packet`` at time ``now``.  Returns False if it was dropped."""
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        """Return the next packet to transmit, or None if the queue is empty."""
        raise NotImplementedError

    # ------------------------------------------------------------ helpers
    def _push(self, packet: Packet, now: float) -> None:
        packet.enqueue_time = now
        self._queue.append(packet)
        self.backlog_bytes += packet.size
        self.backlog_packets += 1

    def _pop(self, now: float) -> Optional[Packet]:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        packet.dequeue_time = now
        waited = now - packet.enqueue_time
        if waited > 0.0:
            packet.total_queuing_delay += waited
        self.backlog_bytes -= packet.size
        self.backlog_packets -= 1
        return packet

    def peek(self) -> Optional[Packet]:
        """Packet at the head of the queue (None when empty)."""
        return self._queue[0] if self._queue else None

    def __len__(self) -> int:
        return self.backlog_packets

    @property
    def is_empty(self) -> bool:
        return self.backlog_packets == 0

    def sojourn_time(self, now: float) -> float:
        """Time the head-of-line packet has spent queued (0 when empty)."""
        head = self.peek()
        if head is None:
            return 0.0
        return max(now - head.enqueue_time, 0.0)

    def queuing_delay(self, now: float, capacity_bps: float) -> float:
        """Standing-queue delay estimate ``q(t) / µ(t)`` used by Eq. (1)."""
        if capacity_bps <= 0:
            return 0.0
        return self.backlog_bytes * 8.0 / capacity_bps


class FifoQdisc(Qdisc):
    """Plain drop-tail FIFO queue (the paper's default non-AQM buffer)."""

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.backlog_packets >= self.buffer_packets:
            self.dropped_packets += 1
            return False
        self._push(packet, now)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        return self._pop(now)
