"""High-level scenario builder: wire senders, links and receivers together.

Every experiment in the paper boils down to a handful of topologies: one or
more flows sharing one bottleneck link, a two-bottleneck path (cellular uplink
plus downlink, or wireless plus wired), and mixes of ABC and non-ABC flows on
the same bottleneck.  :class:`Scenario` builds those topologies from simple
ingredients and returns a :class:`ScenarioResult` exposing the metrics the
paper reports (utilisation, per-packet delay percentiles, queuing-delay time
series, per-flow throughput).

Propagation delay is modelled with per-flow :class:`DelayHop` segments: half
of the flow's minimum RTT is spread over the forward path (split evenly
between the segments before, between and after the bottleneck links) and half
is spent on the ACK return path.

Lifetime of a cell: a scenario is wired by ``add_*``, runs once, is unwired
by :meth:`Scenario.run` and is freed by its last reference — a finished
scenario holds no reference cycle, so no collector pass is needed.  Results
are read from flows, links, qdiscs and cc objects, not from wiring
(``link.dst``, ``sender.egress``, demux routes and the event heap are gone).

State that only exists mid-run (a window, a queue backlog) is read by a probe
registered with :meth:`Scenario.every`; nothing is sampled unless a caller
registers one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.cc.base import CongestionControl
from repro.cellular.trace import CellularTrace
from repro.obs import metrics as obs_metrics
from repro.simulator.endpoints import DelayHop, Receiver, Sender, _forward
from repro.simulator.engine import EventLoop
from repro.simulator.link import (CapacityModel, ConstantRate, Link,
                                  OpportunityLink, RateLink)
from repro.simulator.monitor import FlowStats
from repro.simulator.packet import MTU
from repro.simulator.qdisc import FifoQdisc, Qdisc
from repro.simulator.traffic import TrafficSource


class FlowDemux:
    """Routes packets leaving a shared link to the flow's next hop.

    Routes whose next hop is a :class:`DelayHop` are precompiled to
    ``(delay, destination_callback, shifted)`` triples so a routed packet
    costs one dict lookup and one ``post`` call instead of a hop bounce
    through the event loop.  When the destination declares itself
    ``deliver_shifted``-safe (a :class:`~repro.simulator.endpoints.Receiver`
    — a per-flow leaf whose state nothing else observes mid-run), the post
    is elided entirely: the destination runs synchronously with the computed
    arrival time ``now + delay``, unless that time lies beyond the run
    horizon ``env._limit`` (an arrival event there would never fire, so one
    is parked in the heap instead).  Scheduled times and per-object arrival
    orders are those of the hop-by-hop events; only heap sequence numbers
    shift.  Any other route (or a demux built without an event loop) takes
    the generic hop dispatch.
    """

    #: A demux only *posts* future events when handed a packet — it never
    #: mutates queue or flow state — so a link may invoke it synchronously
    #: at delivery time instead of bouncing through a zero-delay event
    #: (arrival order at every stateful object is unchanged, only heap
    #: sequence numbers shift).
    deliver_inline = True

    def __init__(self, name: str = "demux", env=None):
        self.name = name
        self.routes: Dict[int, object] = {}
        self._env = env
        self._fused: Dict[int, tuple] = {}

    def set_route(self, flow_id: int, next_hop) -> None:
        self.routes[flow_id] = next_hop
        if (self._env is not None and type(next_hop) is DelayHop
                and next_hop.dst is not None):
            dst = next_hop.dst
            if getattr(dst, "deliver_shifted", False):
                self._fused[flow_id] = (next_hop.delay, dst.receive_at, True)
            else:
                self._fused[flow_id] = (next_hop.delay, dst.receive, False)
        else:
            self._fused.pop(flow_id, None)

    def receive(self, packet) -> None:
        fused = self._fused.get(packet.flow_id)
        if fused is None:
            hop = self.routes.get(packet.flow_id)
            if hop is not None:
                _forward(hop, packet)
            return
        env = self._env
        delay, callback, shifted = fused
        if shifted:
            when = env._now + delay
            if when <= env._limit:
                callback(packet, when)
            else:
                env.post(delay, callback, packet, when)
        else:
            env.post(delay, callback, packet)


@dataclass
class Flow:
    """Handle returned by :meth:`Scenario.add_flow`."""

    flow_id: int
    sender: Sender
    receiver: Receiver
    links: List[Link] = field(default_factory=list)
    label: str = ""

    @property
    def cc(self) -> CongestionControl:
        return self.sender.cc

    @property
    def stats(self) -> FlowStats:
        return self.receiver.stats_for(self.flow_id)


class Scenario:
    """Builds and runs one simulation scenario."""

    def __init__(self):
        self.env = EventLoop()
        self.links: List[Link] = []
        self.flows: List[Flow] = []
        self._demux: Dict[int, FlowDemux] = {}
        self._next_flow_id = 0
        self.duration: float = 0.0

    # ------------------------------------------------------------ links
    def _register_link(self, link: Link, name: str) -> Link:
        demux = FlowDemux(name=f"{name}-demux", env=self.env)
        link.connect(demux)
        self._demux[id(link)] = demux
        self.links.append(link)
        return link

    def add_cellular_link(self, trace: Union[CellularTrace, Sequence[float]],
                          qdisc: Optional[Qdisc] = None,
                          name: Optional[str] = None,
                          loss_rate: float = 0.0,
                          loss_seed: int = 0) -> OpportunityLink:
        """Add a Mahimahi-style trace-driven bottleneck link.

        ``loss_rate`` adds independent random packet loss (a lossy wireless
        hop) on top of the queue-overflow drops; ``loss_seed`` seeds its RNG
        so runs stay deterministic.
        """
        if isinstance(trace, CellularTrace):
            times = trace.opportunity_times
            link_name = name or trace.name
        else:
            times = list(trace)
            link_name = name or f"cell-{len(self.links)}"
        link = OpportunityLink(self.env, times, qdisc=qdisc, name=link_name,
                               loss_rate=loss_rate, loss_seed=loss_seed)
        return self._register_link(link, link_name)

    def add_rate_link(self, capacity: Union[float, CapacityModel],
                      qdisc: Optional[Qdisc] = None,
                      name: Optional[str] = None,
                      loss_rate: float = 0.0,
                      loss_seed: int = 0) -> RateLink:
        """Add a rate-based link (constant or time-varying capacity)."""
        model = ConstantRate(capacity) if isinstance(capacity, (int, float)) else capacity
        link_name = name or f"link-{len(self.links)}"
        link = RateLink(self.env, model, qdisc=qdisc, name=link_name,
                        loss_rate=loss_rate, loss_seed=loss_seed)
        return self._register_link(link, link_name)

    def add_custom_link(self, link: Link, name: Optional[str] = None) -> Link:
        """Register an externally constructed link (e.g. a WiFi MAC link)."""
        link_name = name or link.name
        return self._register_link(link, link_name)

    def demux_for(self, link: Link) -> FlowDemux:
        return self._demux[id(link)]

    # ------------------------------------------------------------ flows
    def add_flow(self, cc: CongestionControl, links: Sequence[Link],
                 rtt: float = 0.1, start_time: float = 0.0,
                 source: Optional[TrafficSource] = None,
                 label: str = "", mss: int = MTU) -> Flow:
        """Add a flow whose data path traverses ``links`` in order.

        ``rtt`` is the flow's minimum round-trip time: half is spread across
        the forward path, half is the ACK return path.
        """
        if not links:
            raise ValueError("a flow must traverse at least one link")
        if rtt < 0:
            raise ValueError("rtt must be non-negative")
        flow_id = self._next_flow_id
        self._next_flow_id += 1

        sender = Sender(self.env, flow_id, cc, source=source,
                        start_time=start_time, mss=mss,
                        name=label or f"flow-{flow_id}")
        receiver = Receiver(self.env, name=f"recv-{flow_id}")

        forward_delay = rtt / 2.0
        n_segments = len(links) + 1
        segment_delay = forward_delay / n_segments

        # Sender → first link.
        first_hop = DelayHop(self.env, segment_delay, dst=links[0],
                             name=f"fwd-{flow_id}-0")
        sender.connect(first_hop)
        # Link i → link i+1, final link → receiver.
        for index, link in enumerate(links):
            demux = self.demux_for(link)
            if index + 1 < len(links):
                next_dst = links[index + 1]
            else:
                next_dst = receiver
            hop = DelayHop(self.env, segment_delay, dst=next_dst,
                           name=f"fwd-{flow_id}-{index + 1}")
            demux.set_route(flow_id, hop)
        # Receiver → sender (ACK path).
        ack_hop = DelayHop(self.env, rtt / 2.0, dst=sender, name=f"ack-{flow_id}")
        receiver.connect(ack_hop)

        flow = Flow(flow_id=flow_id, sender=sender, receiver=receiver,
                    links=list(links), label=label or f"flow-{flow_id}")
        self.flows.append(flow)
        return flow

    # ------------------------------------------------------------ running
    def every(self, interval: float,
              probe: Callable[[float], None]) -> None:
        """Call ``probe(now)`` at 0, ``interval``, 2·``interval``, … of the
        run, for as long as the next call still falls within it.

        Register before :meth:`run`; the first call is posted now.  A probe
        that only reads state leaves the run's results as they were.  The
        scenario keeps no reference to ``probe`` beyond its pending event, so
        a probe may close over the scenario without making a cycle.
        """
        if not interval > 0.0:
            raise ValueError("interval must be positive")
        self.env.post(0.0, self._probe, interval, probe)

    def _probe(self, interval: float, probe: Callable[[float], None]) -> None:
        now = self.env._now
        probe(now)
        if now + interval <= self.duration:
            self.env.post(interval, self._probe, interval, probe)

    def run(self, duration: float) -> "ScenarioResult":
        """Run the scenario, once, for ``duration`` seconds."""
        if duration <= 0:
            raise ValueError("duration must be positive")
        if self.duration:
            raise RuntimeError(f"{self!r} has already been run")
        self.duration = duration
        for link in self.links:
            starter = getattr(link, "start", None)
            if starter is not None:
                starter()
        for flow in self.flows:
            flow.sender.start()
        self.env.run(until=duration)
        if obs_metrics.enabled():
            obs_metrics.harvest_scenario(self)  # as run: before the teardown
        self._unwire()
        return ScenarioResult(self)

    def _unwire(self) -> None:
        """Undo the wiring ``add_*`` did ("Lifetime of a cell", above)."""
        self.env.clear()  # env -> heap -> bound method -> component -> env
        for link in self.links:
            link.connect(None)
            link.qdisc.attach(None)
        for demux in self._demux.values():
            demux.routes.clear()
            demux._fused.clear()
        for flow in self.flows:
            flow.sender.connect(None)
            flow.sender._rto_timer = None  # holds two of its bound methods
            flow.receiver.connect(None)


class ScenarioResult:
    """Metrics view over a finished :class:`Scenario`."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.duration = scenario.duration

    # ------------------------------------------------------------ flows
    def flow(self, index_or_flow: Union[int, Flow]) -> Flow:
        if isinstance(index_or_flow, Flow):
            return index_or_flow
        return self.scenario.flows[index_or_flow]

    def flow_stats(self, flow: Union[int, Flow]) -> FlowStats:
        return self.flow(flow).stats

    def flow_throughput_bps(self, flow: Union[int, Flow],
                            t0: float = 0.0, t1: Optional[float] = None) -> float:
        t1 = self.duration if t1 is None else t1
        return self.flow_stats(flow).throughput_bps(t0, t1)

    def flow_delay_p95_ms(self, flow: Union[int, Flow],
                          kind: str = "one_way") -> float:
        return self.flow_stats(flow).delay_percentile(95, kind=kind) * 1000.0

    def _aggregate_delays(self, kind: str = "one_way"):
        import numpy as np
        samples = [flow.stats.delays(kind) for flow in self.scenario.flows]
        samples = [s for s in samples if s.size]
        if not samples:
            return np.array([])
        return np.concatenate(samples)

    def aggregate_delay_percentile_ms(self, pct: float = 95.0,
                                      kind: str = "one_way") -> float:
        """Delay percentile over all packets of all flows."""
        import numpy as np
        values = self._aggregate_delays(kind)
        if values.size == 0:
            return 0.0
        return float(np.percentile(values, pct)) * 1000.0

    def aggregate_delay_mean_ms(self, kind: str = "one_way") -> float:
        """Mean per-packet delay over all packets of all flows."""
        import numpy as np
        values = self._aggregate_delays(kind)
        if values.size == 0:
            return 0.0
        return float(np.mean(values)) * 1000.0

    def aggregate_throughput_bps(self, t0: float = 0.0,
                                 t1: Optional[float] = None) -> float:
        t1 = self.duration if t1 is None else t1
        return sum(self.flow_throughput_bps(f, t0, t1) for f in self.scenario.flows)

    # ------------------------------------------------------------ links
    def link_utilization(self, link: Link, t0: float = 0.0,
                         t1: Optional[float] = None) -> float:
        t1 = self.duration if t1 is None else t1
        offered = link.offered_bits(t0, t1)
        if offered <= 0:
            return 0.0
        delivered = link.delivered_bits(t0, t1)
        return min(max(delivered / offered, 0.0), 1.0)

    def link_drops(self, link: Link) -> int:
        """Packets the link lost: refused by its queue or randomly lost."""
        return link.dropped_packets + link.random_loss_packets

    def summary(self, link: Optional[Link] = None,
                warmup: float = 0.0) -> Dict[str, float]:
        """Convenience summary used by the experiment runner."""
        link = link if link is not None else self.scenario.links[0]
        return {
            "throughput_bps": self.aggregate_throughput_bps(t0=warmup),
            "utilization": self.link_utilization(link, t0=warmup),
            "delay_p95_ms": self.aggregate_delay_percentile_ms(95),
            "delay_mean_ms": self.aggregate_delay_mean_ms(),
            "queuing_p95_ms": self.aggregate_delay_percentile_ms(95, kind="queuing"),
            "drops": float(self.link_drops(link)),
        }
