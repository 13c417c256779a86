"""Seeded random generation of valid simulation scenarios.

:class:`ScenarioGen` samples :class:`FuzzScenario` descriptions — plain,
JSON-serializable dataclasses — and :func:`build_scenario` turns one into a
runnable :class:`~repro.simulator.scenario.Scenario`.  Keeping the
description and the build separate is what makes the rest of the fuzzing
stack work: descriptions travel through pickled sweep-job kwargs, shrink
transformations edit them structurally, and corpus entries replay them years
later from JSON.

The sampled space covers the knobs the paper's experiments vary (and a few
they do not): bottleneck model (constant rate, square wave, synthetic
cellular trace), bottleneck buffer size, AQM/scheme at the bottleneck, an
optional wired backhaul hop, random packet loss, flow count, per-flow RTTs
and staggered arrivals, and cross-traffic (a loss-based flow sharing the
bottleneck with the scheme's native flows).

Every sample is *valid by construction*: scheme labels come from the
experiment registry, explicit-feedback schemes are never paired with foreign
cross-traffic, rates/buffers/durations stay inside ranges the simulator
defines behavior for.  The fuzzer searches for invariant violations, not for
input-validation crashes.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.aqm.droptail import DropTailQdisc
from repro.cc.registry import make_cc
from repro.cellular.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.experiments.runner import make_scheme
from repro.simulator.link import ConstantRate, SquareWaveRate
from repro.simulator.scenario import Flow, Scenario
from repro.simulator.traffic import FixedSizeSource

#: Schemes the fuzzer samples.  Excludes the rate-based schemes whose pacing
#: timers dominate runtime (sprout, verus, pcc) and pk-abc (needs a
#: trace-driven link's future-capacity oracle on every path).
SCHEME_POOL = (
    "abc", "abc-enqueue", "cubic", "cubic+codel", "cubic+pie", "newreno",
    "vegas", "copa", "bbr", "xcp", "rcp", "vcp",
)

#: Schemes whose bottleneck qdisc tolerates foreign loss-based cross-traffic
#: (drop-tail/AQM queues, plus the ABC router which the paper's coexistence
#: experiments share with Cubic).  Explicit-feedback routers (XCP/RCP/VCP)
#: only ever see their native senders.
CROSS_TRAFFIC_SCHEMES = frozenset(
    {"abc", "abc-enqueue", "cubic", "cubic+codel", "cubic+pie", "newreno",
     "vegas", "copa", "bbr"})

#: Congestion controllers used as cross-traffic.
CROSS_CCS = ("cubic", "newreno")

#: Extra controllers the small-metro churn mix assigns to non-native flows
#: (the paper's coexistence traffic).  Kept separate from :data:`CROSS_CCS`
#: so extending the metro mix never perturbs :class:`ScenarioGen`'s sampled
#: stream for a given seed.
CHURN_CCS = ("cubic", "bbr")

#: Sentinel flow ``cc`` meaning "the bottleneck scheme's native sender".
NATIVE = "native"


@dataclass
class LinkSpec:
    """One hop of the data path, as plain serializable data.

    ``kind`` selects the capacity model: ``constant`` (``rate_bps``),
    ``square`` (``low_bps``/``high_bps``/``half_period``) or ``cellular``
    (a :class:`~repro.cellular.synthetic.SyntheticTraceConfig` subset plus
    ``trace_seed``).  ``role`` is ``bottleneck`` (gets the scheme's qdisc)
    or ``wired`` (drop-tail backhaul hop).
    """

    kind: str
    params: Dict[str, float] = field(default_factory=dict)
    buffer_packets: int = 250
    loss_rate: float = 0.0
    loss_seed: int = 0
    role: str = "bottleneck"

    def validate(self) -> None:
        if self.kind not in ("constant", "square", "cellular"):
            raise ValueError(f"unknown link kind {self.kind!r}")
        if self.role not in ("bottleneck", "wired"):
            raise ValueError(f"unknown link role {self.role!r}")
        if self.buffer_packets <= 0:
            raise ValueError("buffer_packets must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        if self.kind == "constant" and self.params.get("rate_bps", 0) <= 0:
            raise ValueError("constant link needs a positive rate_bps")
        if self.kind == "square":
            if (self.params.get("low_bps", 0) <= 0
                    or self.params.get("high_bps", 0) <= 0
                    or self.params.get("half_period", 0) <= 0):
                raise ValueError("square link needs positive low/high/period")
        if self.kind == "cellular":
            mean = self.params.get("mean_rate_bps", 0)
            if mean <= 0:
                raise ValueError("cellular link needs a positive mean rate")


@dataclass
class FlowSpec:
    """One flow: a congestion controller, its RTT and its arrival time.

    ``size_bytes`` makes the flow finite: it transfers that many bytes and
    departs (the metro churn model).  ``None`` means backlogged forever.
    """

    cc: str = NATIVE
    rtt: float = 0.1
    start_time: float = 0.0
    size_bytes: Optional[int] = None

    def validate(self) -> None:
        if self.rtt <= 0:
            raise ValueError("rtt must be positive")
        if self.start_time < 0:
            raise ValueError("start_time must be non-negative")
        if self.cc != NATIVE and self.cc not in CROSS_CCS \
                and self.cc not in CHURN_CCS:
            raise ValueError(f"unknown flow cc {self.cc!r}")
        if self.size_bytes is not None and self.size_bytes <= 0:
            raise ValueError("size_bytes must be positive when set")


@dataclass
class FuzzScenario:
    """A complete, serializable scenario description."""

    scenario_id: int
    scheme: str
    duration: float
    links: List[LinkSpec]
    flows: List[FlowSpec]
    sim_seed: int = 0

    # ------------------------------------------------------------ validity
    def validate(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.links:
            raise ValueError("scenario needs at least one link")
        if self.links[0].role != "bottleneck":
            raise ValueError("first link must be the bottleneck")
        if sum(1 for l in self.links if l.role == "bottleneck") != 1:
            raise ValueError("scenario needs exactly one bottleneck link")
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
        return dataclasses.asdict(self)

    @classmethod
    def from_jsonable(cls, data: dict) -> "FuzzScenario":
        links = [LinkSpec(**entry) for entry in data["links"]]
        flows = [FlowSpec(**entry) for entry in data["flows"]]
        return cls(scenario_id=int(data["scenario_id"]),
                   scheme=str(data["scheme"]),
                   duration=float(data["duration"]),
                   links=links, flows=flows,
                   sim_seed=int(data.get("sim_seed", 0)))


# ---------------------------------------------------------------------------
# Building a runnable simulation from a description
# ---------------------------------------------------------------------------
@dataclass
class BuiltScenario:
    """A wired-up simulation plus the handles the invariant suite needs."""

    fuzz: FuzzScenario
    scenario: Scenario
    flows: List[Flow]


def _build_link(scenario: Scenario, spec: LinkSpec, duration: float,
                scheme_qdisc_factory, index: int):
    qdisc = (scheme_qdisc_factory()
             if spec.role == "bottleneck"
             else DropTailQdisc(buffer_packets=spec.buffer_packets))
    name = f"{spec.role}-{index}"
    if spec.kind == "constant":
        return scenario.add_rate_link(
            ConstantRate(spec.params["rate_bps"]), qdisc=qdisc, name=name,
            loss_rate=spec.loss_rate, loss_seed=spec.loss_seed)
    if spec.kind == "square":
        model = SquareWaveRate(spec.params["low_bps"], spec.params["high_bps"],
                               spec.params["half_period"])
        return scenario.add_rate_link(model, qdisc=qdisc, name=name,
                                      loss_rate=spec.loss_rate,
                                      loss_seed=spec.loss_seed)
    config = SyntheticTraceConfig(
        mean_rate_bps=spec.params["mean_rate_bps"],
        min_rate_bps=spec.params["min_rate_bps"],
        max_rate_bps=spec.params["max_rate_bps"],
        volatility=spec.params.get("volatility", 0.25),
        outage_rate_per_s=spec.params.get("outage_rate_per_s", 0.0),
        outage_duration_s=spec.params.get("outage_duration_s", 0.3),
        name=name)
    trace = synthetic_trace(config, duration,
                            seed=int(spec.params.get("trace_seed", 0)))
    return scenario.add_cellular_link(trace, qdisc=qdisc, name=name,
                                      loss_rate=spec.loss_rate,
                                      loss_seed=spec.loss_seed)


def build_scenario(fuzz: FuzzScenario) -> BuiltScenario:
    """Wire a :class:`FuzzScenario` into a runnable simulation (not yet run)."""
    fuzz.validate()
    bottleneck = fuzz.links[0]
    scheme = make_scheme(fuzz.scheme, buffer_packets=bottleneck.buffer_packets,
                         seed=fuzz.sim_seed)
    scenario = Scenario()
    links = [_build_link(scenario, spec, fuzz.duration, scheme.make_qdisc, i)
             for i, spec in enumerate(fuzz.links)]
    flows = []
    for flow_spec in fuzz.flows:
        cc = (scheme.make_sender() if flow_spec.cc == NATIVE
              else make_cc(flow_spec.cc))
        source = (None if flow_spec.size_bytes is None
                  else FixedSizeSource(flow_spec.size_bytes))
        flows.append(scenario.add_flow(cc, links, rtt=flow_spec.rtt,
                                       start_time=flow_spec.start_time,
                                       source=source,
                                       label=f"{flow_spec.cc}"))
    return BuiltScenario(fuzz=fuzz, scenario=scenario, flows=flows)


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------
class ScenarioGen:
    """Seeded sampler over the scenario space.

    The i-th scenario of a campaign is a pure function of ``(seed, i)`` —
    each sample draws from its own ``random.Random`` — so campaigns are
    reproducible regardless of sampling order or worker count.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    # ------------------------------------------------------------ pieces
    def _sample_bottleneck(self, rng: random.Random) -> LinkSpec:
        kind = rng.choices(("constant", "square", "cellular"),
                           weights=(0.35, 0.25, 0.40))[0]
        if kind == "constant":
            params = {"rate_bps": rng.uniform(1e6, 20e6)}
        elif kind == "square":
            low = rng.uniform(1e6, 8e6)
            params = {"low_bps": low,
                      "high_bps": low * rng.uniform(1.5, 4.0),
                      "half_period": rng.uniform(0.2, 1.0)}
        else:
            mean = rng.uniform(2e6, 10e6)
            params = {"mean_rate_bps": mean,
                      "min_rate_bps": mean * rng.uniform(0.05, 0.3),
                      "max_rate_bps": mean * rng.uniform(1.5, 4.0),
                      "volatility": rng.uniform(0.15, 0.4),
                      "outage_rate_per_s": rng.choice((0.0, 0.1, 0.3)),
                      "outage_duration_s": rng.uniform(0.1, 0.4),
                      "trace_seed": rng.randrange(2**16)}
        loss_rate = 0.0 if rng.random() < 0.6 else rng.uniform(0.001, 0.05)
        return LinkSpec(kind=kind, params=params,
                        buffer_packets=rng.choice((10, 25, 50, 100, 250, 400)),
                        loss_rate=loss_rate,
                        loss_seed=rng.randrange(2**16),
                        role="bottleneck")

    def _sample_wired(self, rng: random.Random) -> LinkSpec:
        # A fast backhaul hop: rarely the bottleneck, but it exercises
        # multi-hop queuing-delay accounting and per-link conservation.
        return LinkSpec(kind="constant",
                        params={"rate_bps": rng.uniform(40e6, 100e6)},
                        buffer_packets=500, loss_rate=0.0,
                        loss_seed=0, role="wired")

    # ------------------------------------------------------------ sampling
    def sample(self, index: int) -> FuzzScenario:
        """The ``index``-th scenario of this generator's stream."""
        # String seeding hashes via sha512 — stable across processes and
        # Python versions, unlike hash()-based tuple seeding.
        rng = random.Random(f"{self.seed}:{index}")
        scheme = rng.choice(SCHEME_POOL)
        duration = rng.uniform(2.0, 6.0)
        links = [self._sample_bottleneck(rng)]
        if rng.random() < 0.25:
            links.append(self._sample_wired(rng))
        n_flows = rng.choice((1, 1, 2, 2, 3))
        flows = []
        for i in range(n_flows):
            cc = NATIVE
            if (i > 0 and scheme in CROSS_TRAFFIC_SCHEMES
                    and rng.random() < 0.25):
                cc = rng.choice(CROSS_CCS)
            flows.append(FlowSpec(
                cc=cc, rtt=rng.uniform(0.02, 0.2),
                start_time=0.0 if rng.random() < 0.5
                else rng.uniform(0.0, duration / 2.0)))
        scenario = FuzzScenario(scenario_id=index, scheme=scheme,
                                duration=duration, links=links, flows=flows,
                                sim_seed=rng.randrange(2**16))
        scenario.validate()
        return scenario

    def sample_many(self, budget: int) -> List[FuzzScenario]:
        if budget <= 0:
            raise ValueError("budget must be positive")
        return [self.sample(i) for i in range(budget)]


class SmallMetroGen:
    """Seeded sampler of small metro cities: 10-20 cells with churn on.

    A *city* is a list of per-cell :class:`FuzzScenario` descriptions, one
    single-bottleneck cell each, mirroring the metro pack's workload
    (:func:`repro.metro.cell.metro_cell`): a couple of long-lived backlogged
    flows plus a churning population of finite-size flows — Poisson arrival
    times and bounded-Pareto sizes drawn from the deterministic streams in
    :mod:`repro.metro.workload` — whose schemes come from the coexistence
    mix (ABC natives plus :data:`CHURN_CCS` cross-traffic).  Every cell runs
    the ABC router (``scheme="abc"``), so each one goes through the
    *existing* invariant net and campaign machinery unchanged: churn is just
    flows with ``size_bytes`` set.
    """

    #: The coexistence mix churn flows draw their scheme from.
    MIX = (("abc", 0.6), ("cubic", 0.3), ("bbr", 0.1))

    def __init__(self, seed: int = 0, min_cells: int = 10,
                 max_cells: int = 20):
        if not 1 <= min_cells <= max_cells:
            raise ValueError("need 1 <= min_cells <= max_cells")
        self.seed = seed
        self.min_cells = min_cells
        self.max_cells = max_cells

    def _sample_cell_link(self, rng: random.Random) -> LinkSpec:
        if rng.random() < 0.5:
            params = {"rate_bps": rng.uniform(4e6, 12e6)}
            kind = "constant"
        else:
            low = rng.uniform(3e6, 8e6)
            params = {"low_bps": low,
                      "high_bps": low * rng.uniform(1.5, 2.5),
                      "half_period": rng.uniform(0.3, 0.7)}
            kind = "square"
        return LinkSpec(kind=kind, params=params,
                        buffer_packets=rng.choice((50, 100, 250)),
                        role="bottleneck")

    def sample_city(self, index: int) -> List[FuzzScenario]:
        """The ``index``-th city of this generator's stream."""
        from repro.metro.workload import (bounded_pareto_sizes,
                                          poisson_arrivals, scheme_assignment)

        rng = random.Random(f"metro-fuzz-{self.seed}:{index}")
        n_cells = rng.randint(self.min_cells, self.max_cells)
        duration = round(rng.uniform(2.0, 4.0), 1)
        cells: List[FuzzScenario] = []
        for c in range(n_cells):
            # The workload streams key on the cell *name*, which encodes
            # (generator seed, city index, cell index) — independent cells,
            # reproducible city.
            cell_name = f"fuzz-metro-{self.seed}-{index}-{c}"
            rtt = round(rng.uniform(0.03, 0.12), 3)
            flows = [FlowSpec(cc=NATIVE, rtt=rtt, start_time=0.0)
                     for _ in range(rng.choice((1, 2)))]
            arrivals = poisson_arrivals(rng.uniform(1.0, 3.0), duration,
                                        cell_name, self.seed)
            sizes = bounded_pareto_sizes(len(arrivals), cell_name, self.seed,
                                         min_bytes=20_000,
                                         max_bytes=500_000, alpha=1.2)
            schemes = scheme_assignment(len(arrivals), self.MIX, cell_name,
                                        self.seed)
            for start, size, scheme in zip(arrivals, sizes, schemes):
                flows.append(FlowSpec(
                    cc=NATIVE if scheme == "abc" else scheme, rtt=rtt,
                    start_time=start, size_bytes=size))
            cell = FuzzScenario(scenario_id=index * 1000 + c, scheme="abc",
                                duration=duration,
                                links=[self._sample_cell_link(rng)],
                                flows=flows,
                                sim_seed=rng.randrange(2**16))
            cell.validate()
            cells.append(cell)
        return cells
