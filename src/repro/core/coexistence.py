"""Coexistence of ABC and non-ABC flows at an ABC bottleneck (§5.2).

The ABC router separates ABC and non-ABC packets into two queues and schedules
between them with weights ``w_ABC`` and ``1 − w_ABC``.  ABC's target-rate
computation then only considers ABC's share of the link.  The interesting part
is how the weights are chosen:

* :class:`MaxMinWeightController` — the paper's approach.  Measure the rate of
  the K largest flows in each queue (Space-Saving), treat the remainder of
  each queue as demand-limited short flows (granted their rate), inflate
  top-K demands by X %, share what is left max-min fairly over them and set
  each queue's weight to the total allocation of its flows.
* :class:`ZombieListWeightController` — RCP's strategy: estimate the number of
  flows per queue with a Zombie List and equalise *average* per-flow rates,
  i.e. make weights proportional to flow counts.  Fig. 12b shows why this is
  unfair in the presence of short flows.

The scheduler itself is a byte-weighted deficit scheduler: the queue whose
served-bytes-to-weight ratio is smallest goes next, which converges to the
configured weights whenever both queues are backlogged and stays
work-conserving otherwise.

Optimisation changes: :meth:`DualQueueABCQdisc.dequeue` refreshes the weight
and picks the queue inline, with the original's float expressions in order.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.maxmin import max_min_allocation
from repro.analysis.topk import SpaceSaving
from repro.analysis.zombie import ZombieList
from repro.core.params import ABCParams
from repro.core.router import ABCRouterQdisc
from repro.simulator.packet import Packet
from repro.simulator.qdisc import FifoQdisc, Qdisc

#: The ABC queue's weight before the first update, and the weight bounds.
INITIAL_WEIGHT = 0.5
MINIMUM_WEIGHT = 0.05
#: Max-min: the K largest flows per queue, and their demand headroom X.
TOP_K = 10
DEMAND_HEADROOM = 0.10
#: Zombie list: slots per queue, and the ABC queue's list's seed.
ZOMBIE_SIZE = 64
ZOMBIE_SEED = 0
#: Seconds between weight updates, for both controllers.
WEIGHT_INTERVAL = 1.0


class WeightController:
    """Interface for coexistence weight controllers."""

    def observe_departure(self, queue: str, flow_id: int, size: int, now: float) -> None:
        """Observe one departing packet."""

    def compute_weight(self, now: float, capacity_bps: float) -> float:
        """Return the ABC queue's weight in ``(0, 1)``."""
        raise NotImplementedError


class MaxMinWeightController(WeightController):
    """The paper's demand-based max-min weight allocation (§5.2)."""

    def __init__(self):
        self._meters = {"abc": SpaceSaving(capacity=4 * TOP_K),
                        "nonabc": SpaceSaving(capacity=4 * TOP_K)}
        self._totals = {"abc": 0.0, "nonabc": 0.0}
        self._interval_start: Optional[float] = None
        self.last_weight = INITIAL_WEIGHT

    def observe_departure(self, queue: str, flow_id: int, size: int, now: float) -> None:
        if self._interval_start is None:
            self._interval_start = now
        self._meters[queue].update(flow_id, size)
        self._totals[queue] += size

    def _demands(self, elapsed: float) -> tuple[Dict, Dict]:
        """The top-K flows' demands, keyed ``(queue, flow_id)``, and each
        queue's short-flow rate (the rest of its bytes).  Short flows are
        demand-limited: they get their rate in full, where one max-min key
        for all of them would cap their sum at one flow's fair share."""
        demands: Dict = {}
        short: Dict = {}
        for queue in ("abc", "nonabc"):
            top = self._meters[queue].top(TOP_K)
            top_bytes = 0.0
            for flow_id, volume in top:
                rate = volume * 8.0 / elapsed
                demands[(queue, flow_id)] = rate * (1.0 + DEMAND_HEADROOM)
                top_bytes += volume
            short[queue] = max(self._totals[queue] - top_bytes, 0.0) * 8.0 / elapsed
        return demands, short

    def compute_weight(self, now: float, capacity_bps: float) -> float:
        if self._interval_start is None:
            return self.last_weight
        elapsed = now - self._interval_start
        if elapsed < WEIGHT_INTERVAL:
            return self.last_weight
        demands, totals = self._demands(elapsed)
        if demands:
            allocation = max_min_allocation(demands, max(
                capacity_bps - totals["abc"] - totals["nonabc"], 0.0))
            for (queue, _), value in allocation.items():
                totals[queue] += value
            grand = totals["abc"] + totals["nonabc"]
            if grand > 0:
                weight = totals["abc"] / grand
                weight = min(max(weight, MINIMUM_WEIGHT), 1.0 - MINIMUM_WEIGHT)
                self.last_weight = weight
        # Start a fresh measurement interval.
        for meter in self._meters.values():
            meter.reset()
        self._totals = {"abc": 0.0, "nonabc": 0.0}
        self._interval_start = now
        return self.last_weight


class ZombieListWeightController(WeightController):
    """RCP's flow-count-based weights (the Fig. 12b baseline)."""

    def __init__(self):
        self._zombies = {"abc": ZombieList(size=ZOMBIE_SIZE, seed=ZOMBIE_SEED),
                         "nonabc": ZombieList(size=ZOMBIE_SIZE,
                                              seed=ZOMBIE_SEED + 1)}
        self._last_update: Optional[float] = None
        self.last_weight = INITIAL_WEIGHT

    def observe_departure(self, queue: str, flow_id: int, size: int, now: float) -> None:
        self._zombies[queue].observe(flow_id)

    def compute_weight(self, now: float, capacity_bps: float) -> float:
        if self._last_update is None:
            self._last_update = now
            return self.last_weight
        if now - self._last_update < WEIGHT_INTERVAL:
            return self.last_weight
        self._last_update = now
        n_abc = self._zombies["abc"].estimated_flow_count()
        n_nonabc = self._zombies["nonabc"].estimated_flow_count()
        weight = n_abc / (n_abc + n_nonabc)
        self.last_weight = min(max(weight, MINIMUM_WEIGHT),
                               1.0 - MINIMUM_WEIGHT)
        return self.last_weight


class DualQueueABCQdisc(Qdisc):
    """Two-queue ABC bottleneck: ABC traffic and legacy traffic side by side.

    ABC packets (identified by ``packet.abc_capable``) go through an embedded
    :class:`~repro.core.router.ABCRouterQdisc` whose capacity is scaled by the
    current ABC weight; non-ABC packets go through a separate drop-tail
    queue.  A byte-weighted scheduler serves the two queues
    in proportion to the weights produced by the controller.
    """

    name = "abc-dual"

    def __init__(self, params: Optional[ABCParams] = None,
                 buffer_packets: int = 250,
                 controller: Optional[WeightController] = None):
        super().__init__(buffer_packets=buffer_packets)
        self.params = params if params is not None else ABCParams()
        self.abc_queue = ABCRouterQdisc(params=self.params,
                                        buffer_packets=buffer_packets)
        self.nonabc_queue = FifoQdisc(buffer_packets=buffer_packets)
        self.controller = controller if controller is not None else MaxMinWeightController()
        self.weight_abc = INITIAL_WEIGHT
        # Bytes each queue was served since the weight last changed.
        self._served_abc = self._served_nonabc = 0.0

    # ------------------------------------------------------------ capacity
    def attach(self, link) -> None:
        """The embedded router reads its share of the link through ``self``
        only while attached: detached (capacity 0 either way), ``self`` owns
        no bound method of itself, which would be a reference cycle."""
        super().attach(link)
        self.abc_queue.capacity_fn = (
            self._abc_capacity if link is not None else None)

    def _abc_capacity(self, now: float) -> float:
        """Capacity share visible to the embedded ABC router (§5.2): its
        ``capacity_fn`` while attached, so one hop from the link."""
        return self.link.capacity_bps(now) * self.weight_abc

    # ------------------------------------------------------------ queue ops
    def enqueue(self, packet: Packet, now: float) -> bool:
        queue = self.abc_queue if packet.abc_capable else self.nonabc_queue
        if queue.enqueue(packet, now):
            self.backlog_bytes += packet.size
            self.backlog_packets += 1
            return True
        self.dropped_packets += 1
        return False

    def _pick_queue(self) -> Qdisc:
        """The queue served next (the one further behind its weight)."""
        abc, nonabc = self.abc_queue, self.nonabc_queue
        if not abc.backlog_packets:
            return nonabc
        if nonabc.backlog_packets and not (
                self._served_abc / max(self.weight_abc, 1e-9)
                <= self._served_nonabc / max(1.0 - self.weight_abc, 1e-9)):
            return nonabc
        return abc

    def dequeue(self, now: float) -> Optional[Packet]:
        # The weight refresh: a new weight resets the served bytes, so it
        # takes effect quickly instead of being dominated by history.
        link = self.link
        weight = self.controller.compute_weight(
            now, link.capacity_bps(now) if link is not None else 0.0)
        if weight != self.weight_abc:
            self.weight_abc = weight
            self._served_abc = self._served_nonabc = 0.0
        # DualQueueABCQdisc._pick_queue, inlined.
        abc, nonabc = self.abc_queue, self.nonabc_queue
        if not abc.backlog_packets:
            queue = nonabc              # None below if it is empty too
        elif nonabc.backlog_packets and not (
                self._served_abc / max(weight, 1e-9)
                <= self._served_nonabc / max(1.0 - weight, 1e-9)):
            queue = nonabc
        else:
            queue = abc
        packet = queue.dequeue(now)
        if packet is None:
            return None
        size = packet.size
        self.backlog_bytes -= size
        self.backlog_packets -= 1
        if queue is abc:
            self._served_abc += size
            name = "abc"
        else:
            self._served_nonabc += size
            name = "nonabc"
        self.controller.observe_departure(name, packet.flow_id, size, now)
        return packet

    # ------------------------------------------------------------ helpers
    def peek(self) -> Optional[Packet]:
        return self._pick_queue().peek()

    def abc_queuing_delay(self, now: float) -> float:
        capacity = self._link_capacity(now) * self.weight_abc
        return self.abc_queue.queuing_delay(now, capacity)

    def nonabc_queuing_delay(self, now: float) -> float:
        capacity = self._link_capacity(now) * (1.0 - self.weight_abc)
        return self.nonabc_queue.queuing_delay(now, capacity)
