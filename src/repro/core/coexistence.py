"""Coexistence of ABC and non-ABC flows at an ABC bottleneck (§5.2).

The ABC router separates ABC and non-ABC packets into two queues and schedules
between them with weights ``w_ABC`` and ``1 − w_ABC``.  ABC's target-rate
computation then only considers ABC's share of the link.  The interesting part
is how the weights are chosen:

* :class:`MaxMinWeightController` — the paper's approach.  Measure the rate of
  the K largest flows in each queue (Space-Saving), treat the remainder of
  each queue as demand-limited short flows, inflate top-K demands by X %,
  compute a max-min fair allocation over all demands and set each queue's
  weight to the total allocation of its flows.
* :class:`ZombieListWeightController` — RCP's strategy: estimate the number of
  flows per queue with a Zombie List and equalise *average* per-flow rates,
  i.e. make weights proportional to flow counts.  Fig. 12b shows why this is
  unfair in the presence of short flows.

The scheduler itself is a byte-weighted deficit scheduler: the queue whose
served-bytes-to-weight ratio is smallest goes next, which converges to the
configured weights whenever both queues are backlogged and stays
work-conserving otherwise.
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


class WeightController:
    """Interface for coexistence weight controllers."""

    def observe_departure(self, queue: str, flow_id: int, size: int, now: float) -> None:
        """Observe one departing packet."""

    def compute_weight(self, now: float, capacity_bps: float) -> float:
        """Return the ABC queue's weight in ``(0, 1)``."""
        raise NotImplementedError


class MaxMinWeightController(WeightController):
    """The paper's demand-based max-min weight allocation (§5.2)."""

    def __init__(self, top_k: int = 10, demand_headroom: float = 0.10,
                 interval: float = 1.0, minimum_weight: float = 0.05):
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if demand_headroom < 0:
            raise ValueError("demand_headroom must be non-negative")
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.top_k = top_k
        self.demand_headroom = demand_headroom
        self.interval = interval
        self.minimum_weight = minimum_weight
        self._meters = {"abc": SpaceSaving(capacity=4 * top_k),
                        "nonabc": SpaceSaving(capacity=4 * top_k)}
        self._totals = {"abc": 0.0, "nonabc": 0.0}
        self._interval_start: Optional[float] = None
        self.last_weight = 0.5
        self.last_allocation: Dict = {}

    def observe_departure(self, queue: str, flow_id: int, size: int, now: float) -> None:
        if self._interval_start is None:
            self._interval_start = now
        self._meters[queue].update(flow_id, size)
        self._totals[queue] += size

    def _demands(self, elapsed: float) -> tuple[Dict, Dict]:
        """Build the demand map and the flow→queue map for the allocation."""
        demands: Dict = {}
        queue_of: Dict = {}
        for queue in ("abc", "nonabc"):
            meter = self._meters[queue]
            top = meter.top(self.top_k)
            top_bytes = 0.0
            for flow_id, volume in top:
                rate = volume * 8.0 / elapsed
                key = (queue, flow_id)
                demands[key] = rate * (1.0 + self.demand_headroom)
                queue_of[key] = queue
                top_bytes += volume
            short_bytes = max(self._totals[queue] - top_bytes, 0.0)
            if short_bytes > 0:
                key = (queue, "__short__")
                demands[key] = short_bytes * 8.0 / elapsed
                queue_of[key] = queue
        return demands, queue_of

    def compute_weight(self, now: float, capacity_bps: float) -> float:
        if self._interval_start is None:
            return self.last_weight
        elapsed = now - self._interval_start
        if elapsed < self.interval:
            return self.last_weight
        demands, queue_of = self._demands(elapsed)
        if demands:
            allocation = max_min_allocation(demands, capacity_bps)
            self.last_allocation = allocation
            totals = {"abc": 0.0, "nonabc": 0.0}
            for key, value in allocation.items():
                totals[queue_of[key]] += value
            grand = totals["abc"] + totals["nonabc"]
            if grand > 0:
                weight = totals["abc"] / grand
                weight = min(max(weight, self.minimum_weight), 1.0 - self.minimum_weight)
                self.last_weight = weight
        # Start a fresh measurement interval.
        for meter in self._meters.values():
            meter.reset()
        self._totals = {"abc": 0.0, "nonabc": 0.0}
        self._interval_start = now
        return self.last_weight


class ZombieListWeightController(WeightController):
    """RCP's flow-count-based weights (the Fig. 12b baseline)."""

    def __init__(self, interval: float = 1.0, minimum_weight: float = 0.05,
                 zombie_size: int = 64, seed: int = 0):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.minimum_weight = minimum_weight
        self._zombies = {"abc": ZombieList(size=zombie_size, seed=seed),
                         "nonabc": ZombieList(size=zombie_size, seed=seed + 1)}
        self._last_update: Optional[float] = None
        self.last_weight = 0.5

    def observe_departure(self, queue: str, flow_id: int, size: int, now: float) -> None:
        self._zombies[queue].observe(flow_id)

    def compute_weight(self, now: float, capacity_bps: float) -> float:
        if self._last_update is None:
            self._last_update = now
            return self.last_weight
        if now - self._last_update < self.interval:
            return self.last_weight
        self._last_update = now
        n_abc = self._zombies["abc"].estimated_flow_count()
        n_nonabc = self._zombies["nonabc"].estimated_flow_count()
        weight = n_abc / (n_abc + n_nonabc)
        self.last_weight = min(max(weight, self.minimum_weight),
                               1.0 - self.minimum_weight)
        return self.last_weight


class DualQueueABCQdisc(Qdisc):
    """Two-queue ABC bottleneck: ABC traffic and legacy traffic side by side.

    ABC packets (identified by ``packet.abc_capable``) go through an embedded
    :class:`~repro.core.router.ABCRouterQdisc` whose capacity is scaled by the
    current ABC weight; non-ABC packets go through a separate drop-tail (or
    caller-supplied) queue.  A byte-weighted scheduler serves the two queues
    in proportion to the weights produced by the controller.
    """

    name = "abc-dual"

    def __init__(self, params: Optional[ABCParams] = None,
                 buffer_packets: int = 250,
                 nonabc_qdisc: Optional[Qdisc] = None,
                 controller: Optional[WeightController] = None,
                 initial_weight: float = 0.5):
        super().__init__(buffer_packets=buffer_packets)
        if not 0.0 < initial_weight < 1.0:
            raise ValueError("initial_weight must be in (0, 1)")
        self.params = params if params is not None else ABCParams()
        self.abc_queue = ABCRouterQdisc(params=self.params,
                                        buffer_packets=buffer_packets)
        self.nonabc_queue = nonabc_qdisc if nonabc_qdisc is not None else (
            FifoQdisc(buffer_packets=buffer_packets))
        self.controller = controller if controller is not None else MaxMinWeightController()
        self.weight_abc = initial_weight
        # Seed the controller so its first report agrees with the configured
        # starting point instead of silently resetting to its own default.
        if hasattr(self.controller, "last_weight"):
            self.controller.last_weight = initial_weight
        self._served_bytes = {"abc": 0.0, "nonabc": 0.0}
        self.weight_history: list[tuple[float, float]] = []

    # ------------------------------------------------------------ capacity
    def attach(self, link) -> None:
        """The embedded router reads its share of the link through ``self``
        only while attached: detached (capacity 0 either way), ``self`` owns
        no bound method of itself, which would be a reference cycle."""
        super().attach(link)
        self.abc_queue.capacity_fn = (
            self._abc_capacity if link is not None else None)

    def _link_capacity(self, now: float) -> float:
        if self.link is None:
            return 0.0
        return self.link.capacity_bps(now)

    def _abc_capacity(self, now: float) -> float:
        """Capacity share visible to the embedded ABC router (§5.2)."""
        return self._link_capacity(now) * self.weight_abc

    # ------------------------------------------------------------ queue ops
    def _classify(self, packet: Packet) -> str:
        return "abc" if getattr(packet, "abc_capable", False) else "nonabc"

    def enqueue(self, packet: Packet, now: float) -> bool:
        queue_name = self._classify(packet)
        queue = self.abc_queue if queue_name == "abc" else self.nonabc_queue
        accepted = queue.enqueue(packet, now)
        if accepted:
            self.backlog_bytes += packet.size
            self.backlog_packets += 1
        else:
            self.dropped_packets += 1
        return accepted

    def _pick_queue(self) -> Optional[str]:
        abc_empty = self.abc_queue.is_empty
        nonabc_empty = self.nonabc_queue.is_empty
        if abc_empty and nonabc_empty:
            return None
        if abc_empty:
            return "nonabc"
        if nonabc_empty:
            return "abc"
        # Both backlogged: serve the queue that is furthest behind its weight.
        abc_normalised = self._served_bytes["abc"] / max(self.weight_abc, 1e-9)
        nonabc_normalised = (self._served_bytes["nonabc"]
                             / max(1.0 - self.weight_abc, 1e-9))
        return "abc" if abc_normalised <= nonabc_normalised else "nonabc"

    def dequeue(self, now: float) -> Optional[Packet]:
        self._refresh_weight(now)
        choice = self._pick_queue()
        if choice is None:
            return None
        queue = self.abc_queue if choice == "abc" else self.nonabc_queue
        packet = queue.dequeue(now)
        if packet is None:
            return None
        self.backlog_bytes -= packet.size
        self.backlog_packets -= 1
        self._served_bytes[choice] += packet.size
        self.controller.observe_departure(choice, packet.flow_id, packet.size, now)
        return packet

    def _refresh_weight(self, now: float) -> None:
        weight = self.controller.compute_weight(now, self._link_capacity(now))
        if weight != self.weight_abc:
            self.weight_abc = weight
            self.weight_history.append((now, weight))
            # Reset the served-byte counters so the new weights take effect
            # quickly instead of being dominated by history.
            self._served_bytes = {"abc": 0.0, "nonabc": 0.0}

    # ------------------------------------------------------------ helpers
    def peek(self) -> Optional[Packet]:
        choice = self._pick_queue()
        if choice is None:
            return None
        queue = self.abc_queue if choice == "abc" else self.nonabc_queue
        return queue.peek()

    def abc_queuing_delay(self, now: float) -> float:
        return self.abc_queue.queuing_delay(now, self._abc_capacity(now))

    def nonabc_queuing_delay(self, now: float) -> float:
        capacity = self._link_capacity(now) * (1.0 - self.weight_abc)
        return self.nonabc_queue.queuing_delay(now, capacity)
