"""One scenario description for every packet-level experiment.

A :class:`ScenarioSpec` is plain, JSON-serialisable data: a scheme label, a
duration, the hops of the data path (:class:`LinkSpec`) and the flows
(:class:`FlowSpec`).  :func:`build` is the one function that turns it into
a wired, not yet run, :class:`~repro.simulator.scenario.Scenario`.

:func:`spec_cell` is the one sweep job function: a spec, built in the
parent, plus the name of a *summary* (:mod:`repro.experiments.summaries`)
that runs it into the figure's result, so a cell's spec is in its cache key
and its ``figure`` manifest and replays from there.  Only Fig. 4's probe
(:func:`repro.experiments.wifi_eval.fig4_inter_ack`) wires by hand.

A *scheme* is a sender-side congestion controller plus the queueing
discipline at the bottleneck (Cubic runs over a deep drop-tail buffer,
"Cubic+Codel" over CoDel, ABC and the explicit schemes bring their own
router); :data:`SCHEMES` maps each label to its sender, and :func:`build`
makes the qdisc.  A link's ``qdisc`` is the scheme's own by default,
drop-tail on a ``wired`` hop, or the two-queue ABC scheduler of Figs. 7 / 12
with its ``maxmin`` or ``zombie`` weight controller.  Senders, qdiscs and
summaries are ``"module:name"`` table entries imported on first use: a spec
loads none of them (nor the simulator or the executor), and a cell loads
only the ones it runs.

:func:`link_spec_from` is the one converter from the ``link_spec`` values
the spec builders accept: a rate in bit/s, a
:class:`~repro.cellular.trace.CellularTrace` (registered with the trace
store), a :class:`~repro.runtime.trace_store.TraceRef`, or a
:class:`LinkSpec`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pkgutil import resolve_name
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.cc.registry import available_schemes, make_cc
from repro.cellular.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.cellular.trace import CellularTrace
from repro.core.params import ABCParams, CELLULAR_DEFAULTS
from repro.experiments.summaries import SUMMARIES
from repro.runtime.spec import SweepJob
from repro.runtime.trace_store import TraceRef, get_trace, register_trace

if TYPE_CHECKING:  # the simulator is imported by build: a spec needs none of it
    from repro.simulator.scenario import Flow, Scenario

#: Scheme label → its sender's ``make_cc`` name (:func:`_qdisc` builds its
#: bottleneck qdisc).
SCHEMES = {"abc": "abc", "pk-abc": "abc", "abc-enqueue": "abc",
           **{name: "cubic" for name in ("cubic", "cubic+codel", "cubic+pie")},
           **{name: name for name in ("newreno", "vegas", "copa", "bbr", "pcc",
                                      "sprout", "verus", "xcp", "rcp", "vcp")},
           "xcpw": "xcp"}

#: Schemes whose bottleneck qdisc tolerates foreign loss-based cross-traffic
#: (drop-tail/AQM queues, plus the ABC router which the paper's coexistence
#: experiments share with Cubic).  Explicit-feedback routers (XCP/RCP/VCP)
#: only ever see their native senders.
CROSS_TRAFFIC_SCHEMES = frozenset(
    {"abc", "abc-enqueue", "cubic", "cubic+codel", "cubic+pie", "newreno",
     "vegas", "copa", "bbr"})

#: Flow ``cc`` meaning "the scheme's native sender".
NATIVE = "native"
#: The base round-trip time (s) of every wired and cellular figure (§6).
BASE_RTT = 0.1

#: Capacity kind → the params it needs (positive, or a non-empty series).
LINK_KINDS = {"constant": ("rate_bps",),
              "square": ("low_bps", "high_bps", "half_period"),
              "cellular": ("mean_rate_bps", "min_rate_bps", "max_rate_bps"),
              "stepped": ("steps",), "trace_ref": ("key",), "wifi": ("mcs",)}

#: Fields a fuzz spec never sets: left at ``None`` they are not encoded, so
#: fuzz specs (job kwargs, reports, corpus entries) encode as they always have.
_OPTIONAL = frozenset({"name", "qdisc", "app_rate_bps", "on_off", "path",
                       "label", "abc_params"})


def _encoded(items) -> dict:
    return {k: v for k, v in items if v is not None or k not in _OPTIONAL}


def _given(value) -> bool:
    return bool(value) if isinstance(value, (list, str)) else (value or 0) > 0


@dataclass
class LinkSpec:
    """One hop of the data path, as plain serializable data.

    ``kind`` selects the capacity model (:data:`LINK_KINDS`): ``constant``,
    ``square`` (optionally ``start_low``), ``stepped`` (``[start_s,
    rate_bps]`` pairs), ``cellular`` (a
    :class:`~repro.cellular.synthetic.SyntheticTraceConfig` subset plus
    ``trace_seed``, synthesised for the scenario's duration), ``trace_ref``
    (a registered trace's store ``key`` and ``name``) or ``wifi`` (``mcs``
    is ``["fixed", index]``, ``["alternating", low, high, period]`` or
    ``["brownian", min, max, period]``; it carries the rate estimator an ABC
    router reads).  ``role`` is ``bottleneck`` or ``wired``; ``name``
    defaults to ``"{role}-{index}"``.
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
        if self.qdisc not in (None, "droptail", "maxmin", "zombie"):
            raise ValueError(f"unknown qdisc {self.qdisc!r}")
        if self.buffer_packets <= 0:
            raise ValueError("buffer_packets must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.kind == "wifi" and self.loss_rate:
            raise ValueError("a wifi link has no random loss")
        missing = [key for key in LINK_KINDS[self.kind]
                   if not _given(self.params.get(key))]
        if missing:
            raise ValueError(f"{self.kind} link needs positive {missing}")

    def display_name(self) -> str:
        """Deterministic display name: a constant link's rate, a trace's
        name, else the kind and its parameters."""
        if self.kind == "constant":
            return str(self.params["rate_bps"])
        if self.kind == "trace_ref":
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
    rtt: float = BASE_RTT
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

    ``sim_seed`` seeds the scheme's randomised qdisc (PIE) and a ``wifi``
    link's MAC and Brownian MCS walk; ``abc_params`` (default
    :data:`~repro.core.params.CELLULAR_DEFAULTS`) parameterises every ABC
    router and ABC sender in the scenario.
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
    """The :class:`LinkSpec` of a ``link_spec`` value (see the module
    docstring); ``fields`` are its other :class:`LinkSpec` fields."""
    if isinstance(value, LinkSpec):
        return dataclasses.replace(value, **fields)
    if isinstance(value, CellularTrace):
        value = register_trace(value)
    if isinstance(value, TraceRef):
        params = {"key": value.key, "name": value.name}
        return LinkSpec("trace_ref", params, **fields)
    if isinstance(value, (int, float)):
        return LinkSpec("constant", {"rate_bps": value}, **fields)
    raise TypeError(f"no link spec for {type(value).__name__}")


@dataclass
class BuiltScenario:
    """A wired-up simulation plus its flow handles, in spec order."""

    spec: ScenarioSpec
    scenario: Scenario
    flows: List[Flow]


def _qdisc(link: LinkSpec, spec: ScenarioSpec, params: ABCParams):
    """``link``'s qdisc: its ``qdisc`` label, drop-tail on a wired hop, else
    the scheme's bottleneck qdisc.  Only the class the label names is
    imported, so a spec needs no qdisc and an ABC cell no AQM."""
    b = link.buffer_packets
    label = link.qdisc or ("droptail" if link.role == "wired" else spec.scheme)
    if label in ("maxmin", "zombie"):
        from repro.core import coexistence

        controller = {"maxmin": coexistence.MaxMinWeightController,
                      "zombie": coexistence.ZombieListWeightController}[label]
        return coexistence.DualQueueABCQdisc(
            params=params, buffer_packets=b,
            controller=controller())
    abc = {"params": params}
    target, kwargs = {
        "abc": ("repro.core.router:ABCRouterQdisc", abc),
        "pk-abc": ("repro.core.pk_abc:PKABCRouterQdisc", abc),
        "abc-enqueue": ("repro.core.router:ABCRouterQdisc",
                        dict(abc, feedback_basis="enqueue")),
        "cubic+codel": ("repro.aqm.codel:CoDelQdisc", {}),
        "cubic+pie": ("repro.aqm.pie:PIEQdisc", {"seed": spec.sim_seed}),
        "xcp": ("repro.explicit.xcp:XCPRouterQdisc", {}),
        "xcpw": ("repro.explicit.xcp:XCPRouterQdisc", {"wireless": True}),
        "rcp": ("repro.explicit.rcp:RCPRouterQdisc", {}),
        "vcp": ("repro.explicit.vcp:VCPRouterQdisc", {}),
    }.get(label, ("repro.aqm.droptail:DropTailQdisc", {}))
    return resolve_name(target)(buffer_packets=b, **kwargs)


def _add_link(scenario: Scenario, link: LinkSpec, index: int,
              spec: ScenarioSpec, params: ABCParams):
    qdisc = _qdisc(link, spec, params)
    name = link.name or f"{link.role}-{index}"
    kwargs = dict(qdisc=qdisc, name=name, loss_rate=link.loss_rate,
                  loss_seed=link.loss_seed)
    p = link.params
    if link.kind == "trace_ref":
        return scenario.add_cellular_link(get_trace(p["key"]), **kwargs)
    from repro.simulator.link import ConstantRate, SquareWaveRate, SteppedRate

    if link.kind == "wifi":
        from repro.core.router import ABCRouterQdisc
        from repro.wifi.mac import WiFiLink
        from repro.wifi.mcs import brownian_mcs_rate, mcs_rate_bps
        from repro.wifi.rate_estimator import WiFiRateEstimator

        estimator = WiFiRateEstimator(window=params.measurement_window)
        if isinstance(qdisc, ABCRouterQdisc):
            qdisc.capacity_fn = estimator.estimate_bps
        schedule, *args = p["mcs"]
        if schedule == "fixed":
            phy_rate = ConstantRate(mcs_rate_bps(*args))
        elif schedule == "alternating":
            low, high, period = args
            phy_rate = SquareWaveRate(mcs_rate_bps(low), mcs_rate_bps(high),
                                      period)
        elif schedule == "brownian":
            phy_rate = brownian_mcs_rate(*args, spec.sim_seed, spec.duration)
        else:
            raise ValueError(f"unknown MCS schedule {schedule!r}")
        return scenario.add_custom_link(WiFiLink(
            scenario.env, phy_rate, seed=spec.sim_seed, qdisc=qdisc,
            name=name, estimator=estimator))
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
    from repro.simulator.traffic import (FixedSizeSource, OnOffSource,
                                         RateLimitedSource)

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
    from repro.simulator.scenario import Scenario

    params = spec.abc_params or CELLULAR_DEFAULTS
    scenario = Scenario()
    links = [_add_link(scenario, link, index, spec, params)
             for index, link in enumerate(spec.links)]
    flows = []
    for flow in spec.flows:
        name = SCHEMES[spec.scheme] if flow.cc == NATIVE else flow.cc
        cc = make_cc(name, params=params) if name == "abc" else make_cc(name)
        path = links if flow.path is None else [links[i] for i in flow.path]
        flows.append(scenario.add_flow(cc, path, rtt=flow.rtt,
                                       start_time=flow.start_time,
                                       source=_source(flow),
                                       label=flow.label or flow.cc))
    return BuiltScenario(spec=spec, scenario=scenario, flows=flows)


def spec_cell(spec: dict, summary: str, **summary_args) -> Any:
    """The one sweep job function: build the JSON-able ``spec`` and hand it
    to the summary named ``summary``, which runs it and returns the cell's
    picklable result (the result cache keys on all three arguments)."""
    return resolve_name(SUMMARIES[summary])(
        build(ScenarioSpec.from_jsonable(spec)), **summary_args)


def spec_job(spec: ScenarioSpec, summary: str, label: str,
             **summary_args) -> SweepJob:
    """The :class:`SweepJob` that runs ``spec`` through :func:`spec_cell`."""
    return SweepJob(func=spec_cell, label=label, kwargs=dict(
        spec=spec.to_jsonable(), summary=summary, **summary_args))
