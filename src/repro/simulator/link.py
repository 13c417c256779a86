"""Link models: constant-rate, time-varying-rate and trace-driven links.

A link owns a qdisc, pulls packets from it when it has transmission capacity
and hands each one to its flow's next hop, by the link's route table;
propagation delay belongs to each flow's path (the delay of its routes), not
to the link.  Three capacity models cover every experiment in the paper:

* :class:`ConstantRate` — wired links (e.g. the 12 Mbit/s drop-tail link in
  Fig. 11, the 24 Mbit/s fairness link in Fig. 3).
* :class:`SteppedRate` / :class:`SquareWaveRate` — step patterns used in
  Fig. 6 and Fig. 17, and Wi-Fi's PHY rate (Figs. 10, 14).
* :class:`OpportunityLink` — Mahimahi-style trace-driven delivery
  opportunities for the cellular experiments (Figs. 1, 8, 9, 15, 16, 18).

The WiFi MAC link lives in :mod:`repro.wifi.mac`; it subclasses :class:`Link`
and adds A-MPDU batching and block ACKs at a :class:`CapacityModel`'s rate.

Optimisation changes vs the original per-packet path
----------------------------------------------------
Results are bit-identical to the original (``tests/test_path_golden.py``);
heap sequence numbers are not:

* **Inline delivery.**  Every link (the Wi-Fi MAC too) reads its route
  table at delivery time: a receiver route whose arrival falls within the
  run's horizon runs the receiver synchronously with the computed arrival
  time, with no event and no frame between them; any other packet takes
  :meth:`Link._forward`.  Arrival order at every stateful object is
  unchanged.
* **A link is its own record.**  Each delivery appends ``(time, bytes)`` to
  the link's departure lists — the numerator of every utilisation figure —
  and the delivered totals are read off them, not counted next to them.
* **Capacity is state.**  A rate link keeps its model's rate until the next
  change (:meth:`CapacityModel.rate_until`), a trace link counts its window
  inline, and :meth:`Link.send` kicks only an idle link.
"""

from __future__ import annotations

import bisect
import math
import random
from heapq import heappush
from typing import (Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.simulator.engine import EventLoop, check_delay
from repro.simulator.packet import MTU, Packet
from repro.simulator.qdisc import FifoQdisc, Qdisc

#: The trailing window (s) over which a trace-driven link reports its
#: opportunity rate as its capacity.
CAPACITY_WINDOW = 0.1


# --------------------------------------------------------------------------
# Capacity models for rate-based links
# --------------------------------------------------------------------------
class CapacityModel:
    """Maps simulated time to an instantaneous link rate in bits per second."""

    def rate_at(self, t: float) -> float:
        raise NotImplementedError

    def rate_until(self, t: float) -> tuple[float, float]:
        """``rate_at(t)`` and the first float time it may differ from."""
        raise NotImplementedError

    def bits_between(self, t0: float, t1: float) -> float:
        """Total bit-capacity offered by the link over ``[t0, t1]``."""
        raise NotImplementedError


def _check_positive(name: str, value: float) -> None:
    # NaN fails too: links add times made from these to now unguarded.
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite")


class ConstantRate(CapacityModel):
    """Fixed-rate link."""

    def __init__(self, rate_bps: float):
        _check_positive("rate_bps", rate_bps)
        self.rate_bps = rate_bps

    def rate_at(self, t: float) -> float:
        return self.rate_bps

    def rate_until(self, t: float) -> tuple[float, float]:
        return self.rate_bps, math.inf

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
        for _, rate in steps:
            _check_positive("rates", rate)
        self._times = list(times)
        self._rates = [r for _, r in steps]

    def rate_at(self, t: float) -> float:
        idx = bisect.bisect_right(self._times, t) - 1
        if idx < 0:
            idx = 0
        return self._rates[idx]

    def rate_until(self, t: float) -> tuple[float, float]:
        times = self._times
        idx = bisect.bisect_right(times, t)
        return (self._rates[idx - 1 if idx else 0],
                times[idx] if idx < len(times) else math.inf)

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
        _check_positive("low_bps", low_bps)
        _check_positive("high_bps", high_bps)
        _check_positive("half_period", half_period)
        self.low_bps = low_bps
        self.high_bps = high_bps
        self.half_period = half_period
        self.start_low = start_low
        # The rates of the even and the odd half-periods.
        self._first, self._second = ((low_bps, high_bps) if start_low
                                     else (high_bps, low_bps))

    def rate_at(self, t: float) -> float:
        return self._second if int(t / self.half_period) % 2 else self._first

    def rate_until(self, t: float) -> tuple[float, float]:
        h = self.half_period
        k = int(t / h)
        # The rounded (k+1)·h may sit an ulp or two either side of the first
        # float at which int(u / h) leaves k (rate_at's test): step onto it.
        until = (k + 1) * h
        while int(until / h) <= k:
            until = math.nextafter(until, math.inf)
        while int(math.nextafter(until, 0.0) / h) > k:
            until = math.nextafter(until, 0.0)
        return (self._second if k % 2 else self._first), until

    def bits_between(self, t0: float, t1: float) -> float:
        """Closed form: whole half-periods plus the two partial edges."""
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
    shared plumbing (enqueueing, drop accounting, routing and the departure
    record).  ``routes`` maps a flow id to ``(delay, callback, shifted)``: a
    packet leaving at ``now`` is ``callback(packet)`` at ``now + delay``, or,
    for a ``shifted`` route (a receiver's ``receive_at``), ``callback(packet,
    now + delay)``; a packet of a flow with no route leaves the simulation.
    """

    def __init__(self, env: EventLoop, qdisc: Optional[Qdisc] = None,
                 name: str = "link", loss_rate: float = 0.0,
                 loss_seed: int = 0):
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.env = env
        self.qdisc = qdisc if qdisc is not None else FifoQdisc()
        self.qdisc.attach(self)
        self.name = name
        self.routes: Dict[int, tuple] = {}
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
        #: A rate link mid-packet, a trace link once started, a Wi-Fi batch
        #: in the air: :meth:`send` kicks :meth:`_on_enqueue` only when clear.
        self._busy = False

    # ------------------------------------------------------------ wiring
    def connect(self, flow_id: int,
                route: Tuple[float, Callable, bool]) -> None:
        """Route ``flow_id``'s packets: ``route`` is ``(delay, callback,
        shifted)`` (see the class docstring)."""
        delay, callback, shifted = route
        self.routes[flow_id] = (check_delay(delay), callback, shifted)

    def _forward(self, packet: Packet, route: Optional[tuple]) -> None:
        """What the inlined deliveries leave over: a non-shifted route, a
        receiver arrival past the run's horizon ``env._limit`` (parked as an
        event, which never fires) and a packet of no routed flow."""
        if route is None:
            return
        delay, callback, shifted = route
        env = self.env
        if shifted:
            env.post(delay, callback, packet, env._now + delay)
        else:
            env.post(delay, callback, packet)

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
            if not self._busy:
                self._on_enqueue(now)
        else:
            self.dropped_packets += 1

    def _on_enqueue(self, now: float) -> None:
        """Hook: an idle link kicks its transmission machinery here."""
        raise NotImplementedError

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
    excellent approximation.  ``_rate`` holds on ``[_rate_from,
    _rate_until)``; the model is asked again only outside that span.
    """

    def __init__(self, env: EventLoop, capacity: CapacityModel,
                 qdisc: Optional[Qdisc] = None, name: str = "rate-link",
                 loss_rate: float = 0.0, loss_seed: int = 0):
        super().__init__(env, qdisc=qdisc, name=name,
                         loss_rate=loss_rate, loss_seed=loss_seed)
        self.capacity = capacity
        self._rate = 0.0
        self._rate_from = self._rate_until = 0.0   # nothing cached yet

    @property
    def packets_in_transmission(self) -> int:
        return 1 if self._busy else 0

    def _refresh_rate(self, now: float) -> float:
        self._rate, self._rate_until = self.capacity.rate_until(now)
        self._rate_from = now
        return self._rate

    def _on_enqueue(self, now: float) -> None:
        packet = self.qdisc.dequeue(now)
        if packet is None:
            return
        self._busy = True
        rate = self._rate
        if not self._rate_from <= now < self._rate_until:
            rate = self._refresh_rate(now)
        self.env.post(packet.size * 8.0 / rate,
                      self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        # Delivery (inline for a receiver route within the horizon) and the
        # next transmission start in one frame.
        env = self.env
        now = env._now
        self.departure_times.append(now)
        self.departure_bytes.append(packet.size)
        route = self.routes.get(packet.flow_id)
        if route and route[2] and (when := now + route[0]) <= env._limit:
            route[1](packet, when)
        else:
            self._forward(packet, route)
        nxt = self.qdisc.dequeue(now)
        if nxt is None:
            self._busy = False
            return
        rate = self._rate
        if not self._rate_from <= now < self._rate_until:
            rate = self._refresh_rate(now)
        heappush(env._heap, (now + nxt.size * 8.0 / rate, next(env._seq),
                             self._finish_transmission, (nxt,)))

    def capacity_bps(self, now: float) -> float:
        if self._rate_from <= now < self._rate_until:
            return self._rate
        return self._refresh_rate(now)

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
                 qdisc: Optional[Qdisc] = None, name: str = "cell-link",
                 loss_rate: float = 0.0, loss_seed: int = 0):
        super().__init__(env, qdisc=qdisc, name=name,
                         loss_rate=loss_rate, loss_seed=loss_seed)
        times = sorted(float(t) for t in opportunity_times)
        if not times:
            raise ValueError("opportunity_times must not be empty")
        if times[0] < 0 or not all(map(math.isfinite, times)):
            raise ValueError("opportunity times must be finite, >= 0")
        self._times = times
        self._trace_span = max(times[-1], 1e-3)
        self._next_index = 0

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
        if self._busy:
            return
        self._busy = True
        self._schedule_next_opportunity()

    def _schedule_next_opportunity(self) -> None:
        index = self._next_index
        self.env.post_at(self._opportunity_time(index),
                         self._fire_opportunity, index)
        self._next_index = index + 1

    def _fire_opportunity(self, index: int) -> None:
        # Drain up to one opportunity's bytes, delivering each packet inline
        # (see _finish_transmission), then push the next opportunity.
        env = self.env
        now = env._now
        qdisc = self.qdisc
        if qdisc.backlog_packets:
            # A packet is at most one MTU, so the first always fits; the
            # head is peeked only while a partial budget is left.
            budget = MTU
            dequeue = qdisc.dequeue
            routes = self.routes
            limit = env._limit
            while True:
                packet = dequeue(now)
                if packet is None:
                    break
                size = packet.size
                budget -= size
                self.departure_times.append(now)
                self.departure_bytes.append(size)
                route = routes.get(packet.flow_id)  # see _finish_transmission
                if route and route[2] and (when := now + route[0]) <= limit:
                    route[1](packet, when)
                else:
                    self._forward(packet, route)
                if budget <= 0:
                    break
                head = qdisc.peek()
                if head is None or head.size > budget:
                    break
        # _opportunity_time inlined (integer divmod, identical expression).
        next_index = self._next_index
        times = self._times
        cycle, offset = divmod(next_index, len(times))
        when = cycle * self._trace_span + times[offset]
        if when < now:  # post_at's clamp: a wrap can round an ulp early
            when = now
        heappush(env._heap,
                 (when, next(env._seq), self._fire_opportunity, (next_index,)))
        self._next_index = next_index + 1

    def _on_enqueue(self, now: float) -> None:
        # Opportunities are clocked by the trace, not by arrivals.
        self.start()

    # ------------------------------------------------------------ capacity
    def capacity_bps(self, now: float) -> float:
        """Opportunity rate over the trailing ``CAPACITY_WINDOW`` seconds:
        :meth:`capacity_in_window` with both ``_index_at`` calls inlined."""
        t0 = now - CAPACITY_WINDOW
        if t0 < 0.0:
            t0 = 0.0
        if now <= t0:
            return 0.0
        times = self._times
        span = self._trace_span
        if now < span:  # the first replay cycle: divmod would give (0, t)
            count = (bisect.bisect_left(times, now)
                     - bisect.bisect_left(times, t0))
        else:
            cycle, within = divmod(now, span)
            count = int(cycle) * len(times) + bisect.bisect_left(times, within)
            cycle, within = divmod(t0, span)
            count -= int(cycle) * len(times) + bisect.bisect_left(times, within)
        return count * MTU * 8.0 / (now - t0)

    def capacity_in_window(self, t0: float, t1: float) -> float:
        """Average opportunity rate (bps) over ``[t0, t1]`` (PK-ABC, §6.6)."""
        t0 = max(t0, 0.0)
        if t1 <= t0:
            return 0.0
        count = self._index_at(t1) - self._index_at(t0)
        return count * MTU * 8.0 / (t1 - t0)

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

    def offered_bits(self, t0: float, t1: float) -> float:
        count = self._index_at(t1) - self._index_at(t0)
        return count * MTU * 8.0
