"""Link models: constant-rate, time-varying-rate and trace-driven links.

A link owns a qdisc, pulls packets from it when it has transmission capacity
and delivers them to the downstream node after a propagation delay.  Three
capacity models cover every experiment in the paper:

* :class:`ConstantRate` — wired links (e.g. the 12 Mbit/s drop-tail link in
  Fig. 11, the 24 Mbit/s fairness link in Fig. 3).
* :class:`SteppedRate` / :class:`SquareWaveRate` — step patterns used in
  Fig. 6 and Fig. 17.
* :class:`OpportunityLink` — Mahimahi-style trace-driven delivery
  opportunities for the cellular experiments (Figs. 1, 8, 9, 15, 16, 18).

The WiFi MAC link lives in :mod:`repro.wifi.mac`; it subclasses :class:`Link`
and adds A-MPDU batching and block ACKs.

Optimisation changes vs the original per-packet path
----------------------------------------------------
Results are bit-identical to the original (``tests/test_path_golden.py``);
heap sequence numbers are not:

* **Inline delivery.**  With zero propagation delay and a downstream node
  that declares itself ``deliver_inline``-safe (a ``FlowDemux``: it only
  posts future events), :class:`RateLink` and :class:`OpportunityLink` call
  it synchronously instead of bouncing through a zero-delay event.  Arrival
  order at every stateful object is unchanged.  The Wi-Fi MAC keeps the
  delivery event (:meth:`Link._deliver`).
* **A link is its own record.**  Each delivery appends ``(time, bytes)`` to
  the link's departure lists — the numerator of every utilisation figure —
  and the delivered totals are read off them, not counted next to them.
"""

from __future__ import annotations

import bisect
import random
from typing import Iterable, List, Optional, Protocol, Sequence

from repro.simulator.engine import EventLoop
from repro.simulator.packet import MTU, Packet
from repro.simulator.qdisc import FifoQdisc, Qdisc


class Node(Protocol):
    """Anything that can receive packets from a link."""

    def receive(self, packet: Packet) -> None:  # pragma: no cover - protocol
        ...


# --------------------------------------------------------------------------
# Capacity models for rate-based links
# --------------------------------------------------------------------------
class CapacityModel:
    """Maps simulated time to an instantaneous link rate in bits per second."""

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def bits_between(self, t0: float, t1: float) -> float:
        """Total bit-capacity offered by the link over ``[t0, t1]``.

        The default implementation integrates :meth:`rate_at` with a 1 ms
        step; subclasses with closed forms override it.
        """
        if t1 <= t0:
            return 0.0
        step = 0.001
        total = 0.0
        t = t0
        while t < t1:
            dt = min(step, t1 - t)
            total += self.rate_at(t) * dt
            t += dt
        return total


class ConstantRate(CapacityModel):
    """Fixed-rate link."""

    def __init__(self, rate_bps: float):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.rate_bps = rate_bps

    def rate_at(self, t: float) -> float:
        return self.rate_bps

    def bits_between(self, t0: float, t1: float) -> float:
        return max(t1 - t0, 0.0) * self.rate_bps


class SteppedRate(CapacityModel):
    """Piecewise-constant rate defined by ``(start_time, rate_bps)`` steps.

    The rate before the first step is the first step's rate.  Steps must be
    sorted by time.
    """

    def __init__(self, steps: Sequence[tuple[float, float]]):
        if not steps:
            raise ValueError("steps must not be empty")
        times = [t for t, _ in steps]
        if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("steps must be sorted by time")
        if any(rate <= 0 for _, rate in steps):
            raise ValueError("rates must be positive")
        self._times = list(times)
        self._rates = [r for _, r in steps]

    def rate_at(self, t: float) -> float:
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            idx = 0
        return self._rates[idx]

    def bits_between(self, t0: float, t1: float) -> float:
        if t1 <= t0:
            return 0.0
        # Interior step boundaries via bisect instead of a linear scan.
        lo = bisect.bisect_right(self._times, t0)
        hi = bisect.bisect_left(self._times, t1)
        total = 0.0
        boundaries = [t0, *self._times[lo:hi], t1]
        for a, b in zip(boundaries, boundaries[1:]):
            total += self.rate_at(a) * (b - a)
        return total


class SquareWaveRate(CapacityModel):
    """Rate alternating between ``low`` and ``high`` every ``half_period`` s.

    Fig. 17 uses 12 ↔ 24 Mbit/s with a 500 ms half-period; the wave starts at
    ``high`` unless ``start_low`` is set.
    """

    def __init__(self, low_bps: float, high_bps: float, half_period: float,
                 start_low: bool = False):
        if low_bps <= 0 or high_bps <= 0 or half_period <= 0:
            raise ValueError("rates and half_period must be positive")
        self.low_bps = low_bps
        self.high_bps = high_bps
        self.half_period = half_period
        self.start_low = start_low
        # The rates of the even and the odd half-periods.
        self._first, self._second = ((low_bps, high_bps) if start_low
                                     else (high_bps, low_bps))

    def rate_at(self, t: float) -> float:
        return self._second if int(t / self.half_period) % 2 else self._first

    def bits_between(self, t0: float, t1: float) -> float:
        """Closed form: whole half-periods plus the two partial edges.

        Replaces the generic 1 ms numerical integration (15 000 ``rate_at``
        calls for a 15 s window) with exact O(1) arithmetic.
        """
        if t1 <= t0:
            return 0.0
        return self._bits_from_zero(t1) - self._bits_from_zero(t0)

    def _bits_from_zero(self, t: float) -> float:
        """Exact capacity integral over ``[0, t]``."""
        if t <= 0.0:
            return 0.0
        h = self.half_period
        first = self._first
        second = self._second
        n_halves = int(t / h)
        pair_bits = (first + second) * h
        total = (n_halves // 2) * pair_bits + (n_halves % 2) * first * h
        remainder = t - n_halves * h
        if remainder > 0.0:
            total += remainder * (first if n_halves % 2 == 0 else second)
        return total


# --------------------------------------------------------------------------
# Link base class
# --------------------------------------------------------------------------
class Link:
    """Base class: owns a qdisc, delivers packets downstream.

    Subclasses decide *when* packets leave the queue; this class handles the
    shared plumbing (enqueueing, drop accounting, propagation delay, delivery
    and the departure record).
    """

    def __init__(self, env: EventLoop, qdisc: Optional[Qdisc] = None,
                 prop_delay: float = 0.0, name: str = "link",
                 dst: Optional[Node] = None, loss_rate: float = 0.0,
                 loss_seed: int = 0):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.env = env
        self.qdisc = qdisc if qdisc is not None else FifoQdisc()
        self.qdisc.attach(self)
        self.prop_delay = prop_delay
        self.name = name
        self.dst = dst
        #: One entry per delivered packet: when it left and its size.
        self.departure_times: List[float] = []
        self.departure_bytes: List[int] = []
        self.dropped_packets = 0
        #: Packets handed to :meth:`send` (the per-link conservation law's
        #: left-hand side: arrived == delivered + queue drops + random-loss
        #: drops + backlog + in-transmission).
        self.arrived_packets = 0
        #: Packets discarded by the random-loss process (disjoint from the
        #: qdisc's queue-overflow/AQM drop counter).
        self.random_loss_packets = 0
        self.loss_rate = loss_rate
        self._loss_rng = random.Random(loss_seed)
        # When the downstream node declares itself ``deliver_inline``-safe
        # (it only *posts* future events, never mutates shared state — e.g.
        # a FlowDemux) and there is no propagation delay to model, delivery
        # invokes it synchronously instead of bouncing through a zero-delay
        # event (see connect()).
        self._rx_inline = None
        if dst is not None:
            self.connect(dst)

    # ------------------------------------------------------------ wiring
    def connect(self, dst: Optional[Node]) -> None:
        self.dst = dst
        self._rx_inline = (
            dst.receive if (self.prop_delay == 0.0
                            and getattr(dst, "deliver_inline", False))
            else None)

    # ------------------------------------------------------------ record
    @property
    def delivered_packets(self) -> int:
        return len(self.departure_times)

    @property
    def delivered_bytes(self) -> int:
        return sum(self.departure_bytes)

    def delivered_bits(self, t0: float, t1: float) -> float:
        """Bits that left the link over ``[t0, t1]`` (the utilisation
        numerator; :meth:`offered_bits` is the denominator)."""
        lo = bisect.bisect_left(self.departure_times, t0)
        hi = bisect.bisect_right(self.departure_times, t1)
        return sum(self.departure_bytes[lo:hi]) * 8.0

    # ------------------------------------------------------------ data path
    def send(self, packet: Packet) -> None:
        """Called by the upstream node to hand a packet to this link."""
        now = self.env._now
        self.arrived_packets += 1
        if self.loss_rate > 0.0 and self._loss_rng.random() < self.loss_rate:
            # Independent random loss (lossy-wireless model): the packet
            # vanishes before it ever reaches the queue.
            self.random_loss_packets += 1
            return
        if self.qdisc.enqueue(packet, now):
            self._on_enqueue(now)
        else:
            self.dropped_packets += 1

    # Links can be chained directly (link.dst = another link); the downstream
    # link's ``receive`` is simply its ``send``.
    receive = send

    def _on_enqueue(self, now: float) -> None:
        """Hook: subclasses kick their transmission machinery here."""
        raise NotImplementedError

    def _deliver(self, packet: Packet) -> None:
        """Ship a dequeued packet to the downstream node through a delivery
        event after the propagation delay (the Wi-Fi MAC's delivery;
        :class:`RateLink` and :class:`OpportunityLink` inline their own)."""
        self.departure_times.append(self.env._now)
        self.departure_bytes.append(packet.size)
        dst = self.dst
        if dst is not None:
            self.env.post(self.prop_delay, dst.receive, packet)

    @property
    def packets_in_transmission(self) -> int:
        """Packets dequeued but not yet delivered downstream.

        Trace-driven links deliver synchronously inside the delivery
        opportunity, so the base count is 0; :class:`RateLink` overrides it
        (a transmission spans ``size*8/rate`` of simulated time).  Used by
        the fuzzing invariants' packet-conservation check.
        """
        return 0

    # ------------------------------------------------------------ capacity
    def capacity_bps(self, now: float) -> float:
        """Instantaneous link capacity µ(t) exposed to explicit routers.

        The cellular experiments in the paper assume the router knows the
        underlying link capacity (§6.2); trace-driven links therefore report
        the smoothed opportunity rate, and rate-based links report the model
        rate.
        """
        raise NotImplementedError

    def offered_bits(self, t0: float, t1: float) -> float:
        """Total bit-capacity the link offered over ``[t0, t1]``.

        Used as the utilisation denominator.
        """
        raise NotImplementedError


class RateLink(Link):
    """A link whose transmissions are paced by a :class:`CapacityModel`.

    The transmission time of a packet is ``size*8 / rate_at(start)``; for the
    step patterns in the paper (which change at most every 500 ms) this is an
    excellent approximation.
    """

    def __init__(self, env: EventLoop, capacity: CapacityModel,
                 qdisc: Optional[Qdisc] = None, prop_delay: float = 0.0,
                 name: str = "rate-link", dst: Optional[Node] = None,
                 loss_rate: float = 0.0, loss_seed: int = 0):
        super().__init__(env, qdisc=qdisc, prop_delay=prop_delay, name=name,
                         dst=dst, loss_rate=loss_rate, loss_seed=loss_seed)
        self.capacity = capacity
        self._busy = False

    @property
    def packets_in_transmission(self) -> int:
        return 1 if self._busy else 0

    def _on_enqueue(self, now: float) -> None:
        if not self._busy:
            self._start_transmission()

    def _start_transmission(self) -> None:
        now = self.env._now
        packet = self.qdisc.dequeue(now)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        self.env.post(packet.size * 8.0 / self.capacity.rate_at(now),
                      self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        # Delivery (inline to a deliver_inline-safe neighbour) and the next
        # transmission start in one frame.
        env = self.env
        now = env._now
        self.departure_times.append(now)
        self.departure_bytes.append(packet.size)
        rx = self._rx_inline
        if rx is not None:
            rx(packet)
        else:
            dst = self.dst
            if dst is not None:
                env.post(self.prop_delay, dst.receive, packet)
        nxt = self.qdisc.dequeue(now)
        if nxt is None:
            self._busy = False
            return
        env.post(nxt.size * 8.0 / self.capacity.rate_at(now),
                 self._finish_transmission, nxt)

    def capacity_bps(self, now: float) -> float:
        return self.capacity.rate_at(now)

    def offered_bits(self, t0: float, t1: float) -> float:
        return self.capacity.bits_between(t0, t1)


class OpportunityLink(Link):
    """Mahimahi-style trace-driven link.

    The trace is a sequence of delivery-opportunity timestamps (seconds).
    Each opportunity can carry up to :data:`~repro.simulator.packet.MTU`
    bytes; opportunities that find the queue empty are wasted, exactly as in
    Mahimahi.  The trace is replayed cyclically when the simulation outlives
    it.
    """

    def __init__(self, env: EventLoop, opportunity_times: Iterable[float],
                 qdisc: Optional[Qdisc] = None, prop_delay: float = 0.0,
                 name: str = "cell-link", dst: Optional[Node] = None,
                 bytes_per_opportunity: int = MTU,
                 capacity_window: float = 0.1,
                 loss_rate: float = 0.0, loss_seed: int = 0):
        super().__init__(env, qdisc=qdisc, prop_delay=prop_delay, name=name,
                         dst=dst, loss_rate=loss_rate, loss_seed=loss_seed)
        times = sorted(float(t) for t in opportunity_times)
        if not times:
            raise ValueError("opportunity_times must not be empty")
        if times[0] < 0:
            raise ValueError("opportunity times must be non-negative")
        self._times = times
        self._trace_span = max(times[-1], 1e-3)
        self.bytes_per_opportunity = bytes_per_opportunity
        self.capacity_window = capacity_window
        self._next_index = 0
        self._cycle = 0
        self._started = False

    # ------------------------------------------------------------ trace math
    def _opportunity_time(self, index: int) -> float:
        """Absolute time of the index-th opportunity (cyclic replay)."""
        cycle, offset = divmod(index, len(self._times))
        return cycle * self._trace_span + self._times[offset]

    def _index_at(self, t: float) -> int:
        """Number of opportunities with timestamp strictly before ``t``."""
        if t <= 0:
            return 0
        span = self._trace_span
        if t < span:
            # Fast path for the first replay cycle (``divmod(t, span)`` is
            # exactly ``(0, t)`` here, so this is bit-identical).
            return bisect.bisect_left(self._times, t)
        cycle, within = divmod(t, span)
        return int(cycle) * len(self._times) + bisect.bisect_left(self._times, within)

    def start(self) -> None:
        """Begin replaying the trace.  Called by the scenario at time 0."""
        if self._started:
            return
        self._started = True
        self._schedule_next_opportunity()

    def _schedule_next_opportunity(self) -> None:
        index = self._next_index
        self.env.post_at(self._opportunity_time(index),
                         self._fire_opportunity, index)
        self._next_index = index + 1

    def _fire_opportunity(self, index: int) -> None:
        # Drain up to one opportunity's bytes, delivering each packet inline
        # (see _finish_transmission), then post the next opportunity.
        env = self.env
        now = env._now
        budget = self.bytes_per_opportunity
        qdisc = self.qdisc
        peek = qdisc.peek
        dequeue = qdisc.dequeue
        departure_times = self.departure_times
        departure_bytes = self.departure_bytes
        prop_delay = self.prop_delay
        rx = self._rx_inline
        dst = self.dst
        dst_receive = dst.receive if dst is not None else None
        post = env.post
        while budget > 0:
            head = peek()
            if head is None or head.size > budget:
                break
            packet = dequeue(now)
            if packet is None:
                break
            size = packet.size
            budget -= size
            departure_times.append(now)
            departure_bytes.append(size)
            if rx is not None:
                rx(packet)
            elif dst_receive is not None:
                post(prop_delay, dst_receive, packet)
        # _opportunity_time inlined (integer divmod, identical expression).
        next_index = self._next_index
        times = self._times
        cycle, offset = divmod(next_index, len(times))
        env.post_at(cycle * self._trace_span + times[offset],
                    self._fire_opportunity, next_index)
        self._next_index = next_index + 1

    def _on_enqueue(self, now: float) -> None:
        # Opportunities are clocked by the trace, not by arrivals.
        if not self._started:
            self.start()

    # ------------------------------------------------------------ capacity
    def capacity_bps(self, now: float) -> float:
        """Opportunity rate over the trailing ``capacity_window`` seconds."""
        return self.capacity_in_window(now - self.capacity_window, now)

    def capacity_in_window(self, t0: float, t1: float) -> float:
        """Average opportunity rate (bps) over ``[t0, t1]``."""
        t0 = max(t0, 0.0)
        if t1 <= t0:
            return 0.0
        count = self._index_at(t1) - self._index_at(t0)
        return count * self.bytes_per_opportunity * 8.0 / (t1 - t0)

    def max_drain_interval(self, packets: int) -> float:
        """Worst-case time for ``packets`` consecutive delivery opportunities.

        A FIFO queue bounded at ``B`` packets drains any admitted packet
        within ``B`` opportunities of its enqueue, so
        ``max_drain_interval(B)`` upper-bounds the per-packet queuing delay
        on this link.  Scans one full trace cycle (the replay is periodic,
        so every window of ``packets`` opportunities appears there).
        """
        if packets <= 0:
            raise ValueError("packets must be positive")
        worst = 0.0
        for i in range(len(self._times)):
            span = self._opportunity_time(i + packets) - self._opportunity_time(i)
            if span > worst:
                worst = span
        return worst

    def future_capacity_bps(self, now: float, horizon: float) -> float:
        """Capacity over ``[now, now+horizon]`` — used by PK-ABC (§6.6)."""
        return self.capacity_in_window(now, now + horizon)

    def offered_bits(self, t0: float, t1: float) -> float:
        count = self._index_at(t1) - self._index_at(t0)
        return count * self.bytes_per_opportunity * 8.0
