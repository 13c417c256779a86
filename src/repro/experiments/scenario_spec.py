"""One scenario description for every packet-level experiment.

A :class:`ScenarioSpec` is plain, JSON-serialisable data: a scheme label, a
duration, the hops of the data path (:class:`LinkSpec`) and the flows
(:class:`FlowSpec`).  :func:`build` is the one function that turns it into
a wired, not yet run, :class:`~repro.simulator.scenario.Scenario`.  The
figure cells, the metro cell and the fuzzer all describe their topology this
way, so any of them can travel in a sweep job, be shrunk, replayed from JSON
or diffed.  Only the Wi-Fi MAC experiments
(:mod:`repro.experiments.wifi_eval`) wire by hand.

A *scheme* is a sender-side congestion controller plus the queueing
discipline at the bottleneck (Cubic runs over a deep drop-tail buffer,
"Cubic+Codel" over CoDel, ABC and the explicit schemes bring their own
router); :data:`SCHEMES` maps each label to both halves.  A link's ``qdisc``
is the scheme's own by default, drop-tail on a ``wired`` hop, or the
two-queue ABC scheduler of Figs. 7 / 12 with its ``maxmin`` or ``zombie``
weight controller.

:func:`link_spec_from` is the one converter from the ``link_spec`` values
the entry points accept: a rate in bit/s, a ``ConstantRate`` /
``SquareWaveRate`` / ``SteppedRate``, a
:class:`~repro.cellular.trace.CellularTrace`, a
:class:`~repro.runtime.trace_store.TraceRef`, a ``("square", low_bps,
high_bps, half_period)`` tuple or a list of opportunity times.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.aqm.codel import CoDelQdisc
from repro.aqm.droptail import DropTailQdisc
from repro.aqm.pie import PIEQdisc
from repro.cc.registry import available_schemes, make_cc
from repro.cellular.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.cellular.trace import CellularTrace
from repro.core.coexistence import (DualQueueABCQdisc, MaxMinWeightController,
                                    ZombieListWeightController)
from repro.core.params import ABCParams, CELLULAR_DEFAULTS
from repro.core.pk_abc import PKABCRouterQdisc
from repro.core.router import ABCRouterQdisc
from repro.explicit.rcp import RCPRouterQdisc
from repro.explicit.vcp import VCPRouterQdisc
from repro.explicit.xcp import XCPRouterQdisc
from repro.runtime.trace_store import TraceRef
from repro.simulator.link import ConstantRate, SquareWaveRate, SteppedRate
from repro.simulator.scenario import Flow, Scenario
from repro.simulator.traffic import (FixedSizeSource, OnOffSource,
                                     RateLimitedSource)


def _droptail(params, buffer_packets, seed):
    return DropTailQdisc(buffer_packets=buffer_packets)


#: Scheme label → (its sender's ``make_cc`` name, its bottleneck qdisc
#: factory ``(abc_params, buffer_packets, sim_seed) -> Qdisc``).
SCHEMES = {
    "abc": ("abc", lambda p, b, s: ABCRouterQdisc(params=p, buffer_packets=b)),
    "pk-abc": ("abc", lambda p, b, s: PKABCRouterQdisc(params=p,
                                                       buffer_packets=b)),
    "abc-enqueue": ("abc", lambda p, b, s: ABCRouterQdisc(
        params=p, buffer_packets=b, feedback_basis="enqueue")),
    "cubic": ("cubic", _droptail),
    "cubic+codel": ("cubic", lambda p, b, s: CoDelQdisc(buffer_packets=b)),
    "cubic+pie": ("cubic", lambda p, b, s: PIEQdisc(buffer_packets=b, seed=s)),
    **{name: (name, _droptail) for name in
       ("newreno", "vegas", "copa", "bbr", "pcc", "sprout", "verus")},
    "xcp": ("xcp", lambda p, b, s: XCPRouterQdisc(buffer_packets=b)),
    "xcpw": ("xcp", lambda p, b, s: XCPRouterQdisc(buffer_packets=b,
                                                   wireless=True)),
    "rcp": ("rcp", lambda p, b, s: RCPRouterQdisc(buffer_packets=b)),
    "vcp": ("vcp", lambda p, b, s: VCPRouterQdisc(buffer_packets=b)),
}

#: Schemes whose bottleneck qdisc tolerates foreign loss-based cross-traffic
#: (drop-tail/AQM queues, plus the ABC router which the paper's coexistence
#: experiments share with Cubic).  Explicit-feedback routers (XCP/RCP/VCP)
#: only ever see their native senders.
CROSS_TRAFFIC_SCHEMES = frozenset(
    {"abc", "abc-enqueue", "cubic", "cubic+codel", "cubic+pie", "newreno",
     "vegas", "copa", "bbr"})

#: Flow ``cc`` meaning "the scheme's native sender".
NATIVE = "native"

#: Capacity kind → the params it needs (positive, or a non-empty series).
LINK_KINDS = {"constant": ("rate_bps",),
              "square": ("low_bps", "high_bps", "half_period"),
              "cellular": ("mean_rate_bps", "min_rate_bps", "max_rate_bps"),
              "stepped": ("steps",), "trace": ("times",)}

#: Dual-queue weight controllers by ``LinkSpec.qdisc`` label.
_CONTROLLERS = {"maxmin": MaxMinWeightController,
                "zombie": ZombieListWeightController}

#: Fields a fuzz spec never sets: left at ``None`` they are not encoded, so
#: fuzz specs (job kwargs, reports, corpus entries) encode as they always have.
_OPTIONAL = frozenset({"name", "qdisc", "app_rate_bps", "on_off", "path",
                       "label", "abc_params"})


def _encoded(items) -> dict:
    return {k: v for k, v in items if v is not None or k not in _OPTIONAL}


def _given(value) -> bool:
    return bool(value) if isinstance(value, list) else (value or 0) > 0


@dataclass
class LinkSpec:
    """One hop of the data path, as plain serializable data.

    ``kind`` selects the capacity model (:data:`LINK_KINDS`): ``constant``,
    ``square`` (optionally ``start_low``), ``stepped`` (``[start_s,
    rate_bps]`` pairs), ``cellular`` (a
    :class:`~repro.cellular.synthetic.SyntheticTraceConfig` subset plus
    ``trace_seed``, synthesised for the scenario's duration) or ``trace``
    (opportunity ``times``, optionally a ``name``).  ``role`` is
    ``bottleneck`` or ``wired``; ``name`` defaults to ``"{role}-{index}"``.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    buffer_packets: int = 250
    loss_rate: float = 0.0
    loss_seed: int = 0
    role: str = "bottleneck"
    name: Optional[str] = None
    qdisc: Optional[str] = None

    def validate(self) -> None:
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}")
        if self.role not in ("bottleneck", "wired"):
            raise ValueError(f"unknown link role {self.role!r}")
        if self.qdisc not in (None, "droptail", *_CONTROLLERS):
            raise ValueError(f"unknown qdisc {self.qdisc!r}")
        if self.buffer_packets <= 0:
            raise ValueError("buffer_packets must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        missing = [key for key in LINK_KINDS[self.kind]
                   if not _given(self.params.get(key))]
        if missing:
            raise ValueError(f"{self.kind} link needs positive {missing}")

    def display_name(self) -> str:
        """Deterministic display name: a constant link's rate, a trace's
        name, else the kind and its parameters."""
        if self.kind == "constant":
            return str(self.params["rate_bps"])
        if self.kind == "trace":
            return self.params.get("name", "trace")
        return f"{self.kind}{sorted(self.params.items())}"


@dataclass
class FlowSpec:
    """One flow: a congestion controller, its RTT and its arrival time.

    The source is backlogged unless one of ``size_bytes`` (a finite transfer
    that departs when done — the metro churn model), ``app_rate_bps``
    (application-limited) or ``on_off`` (``[start, stop]`` intervals) is
    set.  ``path`` lists the link indices the flow crosses, in order
    (default: all); ``label`` defaults to ``cc``.
    """

    cc: str = NATIVE
    rtt: float = 0.1
    start_time: float = 0.0
    size_bytes: Optional[int] = None
    app_rate_bps: Optional[float] = None
    on_off: Optional[List[List[float]]] = None
    path: Optional[List[int]] = None
    label: Optional[str] = None

    def validate(self) -> None:
        if self.rtt <= 0:
            raise ValueError("rtt must be positive")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.cc != NATIVE and self.cc not in available_schemes():
            raise ValueError(f"unknown flow cc {self.cc!r}")
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive when set")
        if sum(source is not None for source in
               (self.size_bytes, self.app_rate_bps, self.on_off)) > 1:
            raise ValueError("a flow has at most one of size_bytes, "
                             "app_rate_bps and on_off")


@dataclass
class ScenarioSpec:
    """A complete, serializable scenario description.

    ``sim_seed`` seeds the scheme's randomised qdisc (PIE); ``abc_params``
    (default :data:`~repro.core.params.CELLULAR_DEFAULTS`) parameterises
    every ABC router and ABC sender in the scenario.
    """

    scheme: str
    duration: float
    links: List[LinkSpec]
    flows: List[FlowSpec]
    scenario_id: int = 0
    sim_seed: int = 0
    abc_params: Optional[ABCParams] = None

    # ------------------------------------------------------------ validity
    def validate(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.links:
            raise ValueError("scenario needs at least one link")
        if self.links[0].role != "bottleneck":
            raise ValueError("first link must be the bottleneck")
        if not self.flows:
            raise ValueError("scenario needs at least one flow")
        for link in self.links:
            link.validate()
        for flow in self.flows:
            flow.validate()
            if flow.start_time >= self.duration:
                raise ValueError("flow starts after the scenario ends")
            if flow.cc != NATIVE and self.scheme not in CROSS_TRAFFIC_SCHEMES:
                raise ValueError(
                    f"scheme {self.scheme!r} does not accept cross-traffic")
            if flow.path is not None and not all(
                    0 <= index < len(self.links) for index in flow.path):
                raise ValueError(f"flow path {flow.path} names no such link")

    # ------------------------------------------------------------ identity
    def signature(self) -> str:
        """Structural signature used to dedupe similar failures.

        Deliberately coarse: two scenarios that differ only in numeric
        parameters (rates, RTTs, seeds) share a signature, so a campaign
        report groups them as one failure mode.
        """
        kinds = "+".join(link.kind for link in self.links)
        ccs = ",".join(sorted(flow.cc for flow in self.flows))
        lossy = any(link.loss_rate > 0 for link in self.links)
        return (f"{self.scheme}|{kinds}|flows={len(self.flows)}"
                f"|ccs={ccs}|lossy={int(lossy)}")

    # ------------------------------------------------------------ (de)serial
    def to_jsonable(self) -> dict:
        """Plain-dict encoding (JSON- and pickle-friendly)."""
        return dataclasses.asdict(self, dict_factory=_encoded)

    @classmethod
    def from_jsonable(cls, data: dict) -> "ScenarioSpec":
        abc_params = data.get("abc_params")
        return cls(scheme=str(data["scheme"]),
                   duration=float(data["duration"]),
                   links=[LinkSpec(**entry) for entry in data["links"]],
                   flows=[FlowSpec(**entry) for entry in data["flows"]],
                   scenario_id=int(data.get("scenario_id", 0)),
                   sim_seed=int(data.get("sim_seed", 0)),
                   abc_params=abc_params and ABCParams(**abc_params))


def link_spec_from(value: Any, **fields: Any) -> LinkSpec:
    """The :class:`LinkSpec` of a legacy ``link_spec`` value (see the module
    docstring); ``fields`` are its other :class:`LinkSpec` fields."""
    if isinstance(value, TraceRef):
        value = value.resolve()
    if isinstance(value, CellularTrace):
        params = {"name": value.name, "times": list(value.opportunity_times)}
        return LinkSpec("trace", params, **fields)
    if isinstance(value, (int, float)):
        return LinkSpec("constant", {"rate_bps": value}, **fields)
    if isinstance(value, ConstantRate):
        return LinkSpec("constant", {"rate_bps": value.rate_bps}, **fields)
    if isinstance(value, SteppedRate):
        steps = [[t, rate] for t, rate in zip(value._times, value._rates)]
        return LinkSpec("stepped", {"steps": steps}, **fields)
    if isinstance(value, SquareWaveRate):
        value = ("square", value.low_bps, value.high_bps, value.half_period,
                 value.start_low)
    if isinstance(value, tuple) and value[:1] == ("square",):
        params = dict(zip(("low_bps", "high_bps", "half_period"),
                          map(float, value[1:4])))
        if value[4:] == (True,):
            params["start_low"] = True
        return LinkSpec("square", params, **fields)
    return LinkSpec("trace", {"times": list(value)}, **fields)


@dataclass
class BuiltScenario:
    """A wired-up simulation plus its flow handles, in spec order."""

    spec: ScenarioSpec
    scenario: Scenario
    flows: List[Flow]


def _add_link(scenario: Scenario, link: LinkSpec, index: int,
              spec: ScenarioSpec, params: ABCParams):
    qdisc = link.qdisc or ("droptail" if link.role == "wired" else None)
    if qdisc is None:
        qdisc = SCHEMES[spec.scheme][1](params, link.buffer_packets,
                                        spec.sim_seed)
    elif qdisc == "droptail":
        qdisc = DropTailQdisc(buffer_packets=link.buffer_packets)
    else:
        qdisc = DualQueueABCQdisc(
            params=params, buffer_packets=link.buffer_packets,
            controller=_CONTROLLERS[qdisc](interval=1.0))
    name = link.name or f"{link.role}-{index}"
    kwargs = dict(qdisc=qdisc, name=name, loss_rate=link.loss_rate,
                  loss_seed=link.loss_seed)
    p = link.params
    if link.kind == "trace":
        return scenario.add_cellular_link(p["times"], **kwargs)
    if link.kind == "cellular":
        config = SyntheticTraceConfig(
            mean_rate_bps=p["mean_rate_bps"], min_rate_bps=p["min_rate_bps"],
            max_rate_bps=p["max_rate_bps"],
            volatility=p.get("volatility", 0.25),
            outage_rate_per_s=p.get("outage_rate_per_s", 0.0),
            outage_duration_s=p.get("outage_duration_s", 0.3), name=name)
        trace = synthetic_trace(config, spec.duration,
                                seed=int(p.get("trace_seed", 0)))
        return scenario.add_cellular_link(trace, **kwargs)
    if link.kind == "constant":
        model = ConstantRate(p["rate_bps"])
    elif link.kind == "square":
        model = SquareWaveRate(p["low_bps"], p["high_bps"], p["half_period"],
                               start_low=p.get("start_low", False))
    else:
        model = SteppedRate([(t, rate) for t, rate in p["steps"]])
    return scenario.add_rate_link(model, **kwargs)


def _source(flow: FlowSpec):
    if flow.size_bytes is not None:
        return FixedSizeSource(flow.size_bytes)
    if flow.app_rate_bps is not None:
        return RateLimitedSource(flow.app_rate_bps)
    if flow.on_off is not None:
        return OnOffSource([(start, stop) for start, stop in flow.on_off])
    return None


def build(spec: ScenarioSpec) -> BuiltScenario:
    """Wire ``spec`` into a runnable simulation (not yet run).

    Links are added in spec order, then flows (flow ``i`` gets flow id
    ``i``).  Raises :class:`KeyError` for an unknown scheme label and
    :class:`ValueError` for an invalid spec.
    """
    spec.validate()
    if spec.scheme not in SCHEMES:
        raise KeyError(f"unknown scheme {spec.scheme!r}; "
                       f"available: {sorted(SCHEMES)}")
    params = spec.abc_params or CELLULAR_DEFAULTS
    scenario = Scenario()
    links = [_add_link(scenario, link, index, spec, params)
             for index, link in enumerate(spec.links)]
    flows = []
    for flow in spec.flows:
        name = SCHEMES[spec.scheme][0] if flow.cc == NATIVE else flow.cc
        cc = make_cc(name, params=params) if name == "abc" else make_cc(name)
        path = links if flow.path is None else [links[i] for i in flow.path]
        flows.append(scenario.add_flow(cc, path, rtt=flow.rtt,
                                       start_time=flow.start_time,
                                       source=_source(flow),
                                       label=flow.label or flow.cc))
    return BuiltScenario(spec=spec, scenario=scenario, flows=flows)
