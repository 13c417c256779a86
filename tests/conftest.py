"""Shared fixtures for the test suite."""

from __future__ import annotations

import math

import pytest

from repro.cc.base import CongestionControl
from repro.cellular.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.cellular.trace import CellularTrace
from repro.core.params import ABCParams
from repro.core.sender import ABCWindowControl
from repro.simulator.engine import EventLoop
from repro.simulator.packet import MTU, AckFeedback


@pytest.fixture
def env() -> EventLoop:
    return EventLoop()


def with_cwnd(cc: CongestionControl, cwnd: float) -> CongestionControl:
    """``cc`` with its window set to ``cwnd`` packets (each scheme starts
    from its own constant initial window)."""
    cc._cwnd = float(cwnd)
    return cc


def abc_sender(initial_cwnd: float,
               params: ABCParams | None = None) -> ABCWindowControl:
    """An ABC sender whose ``w_abc`` and Cubic window both start at
    ``initial_cwnd`` packets instead of ``INITIAL_CWND``."""
    cc = ABCWindowControl(params=params)
    cc._cwnd = cc.w_abc = cc.cubic._cwnd = float(initial_cwnd)
    return cc


@pytest.fixture(scope="session")
def short_trace() -> CellularTrace:
    """A 10-second mildly varying trace used by fast integration tests."""
    config = SyntheticTraceConfig(mean_rate_bps=10e6, min_rate_bps=2e6,
                                  max_rate_bps=20e6, volatility=0.2,
                                  outage_rate_per_s=0.0, name="test-trace")
    return synthetic_trace(config, duration=10.0, seed=42)


@pytest.fixture(scope="session")
def bursty_trace() -> CellularTrace:
    """A strongly varying 10-second trace (with outages)."""
    config = SyntheticTraceConfig(mean_rate_bps=8e6, min_rate_bps=0.5e6,
                                  max_rate_bps=20e6, volatility=0.35,
                                  outage_rate_per_s=0.1, outage_duration_s=0.3,
                                  name="bursty-test-trace")
    return synthetic_trace(config, duration=10.0, seed=7)


def run_single_flow(cc, qdisc, link_spec, duration=8.0, rtt=0.1, source=None):
    """Helper shared by integration tests: one flow over one bottleneck."""
    from repro.simulator.scenario import Scenario

    scenario = Scenario()
    if isinstance(link_spec, CellularTrace):
        link = scenario.add_cellular_link(link_spec, qdisc=qdisc, name="bottleneck")
    elif isinstance(link_spec, (int, float)):
        link = scenario.add_rate_link(float(link_spec), qdisc=qdisc, name="bottleneck")
    else:
        link = scenario.add_rate_link(link_spec, qdisc=qdisc, name="bottleneck")
    flow = scenario.add_flow(cc, [link], rtt=rtt, source=source)
    result = scenario.run(duration)
    return result, link, flow


class AIMD(CongestionControl):
    """Textbook additive-increase / multiplicative-decrease controller.

    Not a scheme the paper evaluates (so not registered); the simplest
    window a sender-loop test can drive.
    """

    name = "aimd"

    def __init__(self, initial_cwnd: float = 2.0,
                 additive_increase: float = 1.0, beta: float = 0.5,
                 ssthresh: float = math.inf):
        super().__init__(initial_cwnd=initial_cwnd)
        self.additive_increase = additive_increase
        self.beta = beta
        self.ssthresh = ssthresh

    def on_ack(self, feedback: AckFeedback) -> float:
        acked_packets = feedback.bytes_acked / MTU
        if self._cwnd < self.ssthresh:
            self._cwnd += acked_packets  # slow start
        else:
            self._cwnd += self.additive_increase * acked_packets / max(self._cwnd, 1.0)
        if feedback.ece:
            self.on_loss(feedback.now)
        return self.window()

    def on_loss(self, now: float) -> None:
        self.ssthresh = max(self._cwnd * self.beta, 2.0)
        self._cwnd = self.ssthresh
        self._clamp()

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self._cwnd * self.beta, 2.0)
        self._cwnd = self.min_cwnd()


def decoded_echo(codepoint) -> tuple:
    """The ``(accel, ece)`` pair a sender hands its cc when its data packets
    reach the receiver carrying ``codepoint``."""
    from repro.simulator.endpoints import Receiver, Sender

    def stamp(packet):
        """A router stand-in: every packet leaves with ``codepoint``."""
        packet.ecn = codepoint
        receiver.receive(packet)

    pairs = []

    class Recording(AIMD):
        def on_ack(self, feedback):
            pairs.append((feedback.accel, feedback.ece))
            return super().on_ack(feedback)

    env = EventLoop()
    sender = Sender(env, flow_id=0,
                    cc=Recording(initial_cwnd=2.0, ssthresh=2.0))
    receiver = Receiver(env)
    receiver.connect((0.01, sender.receive))
    sender.connect((0.01, stamp))
    sender.start()
    env.run(until=0.1)
    assert len(pairs) >= 4
    (pair,) = set(pairs)
    return pair


class KeyRecorder:
    """An executor stand-in that runs nothing: it records the cache keys
    of the jobs it is handed and returns an empty result for each."""

    def run(self, jobs):
        self.keys = [job.cache_key("salt") for job in jobs]
        return [{} for _ in jobs]


def shrunk(figure, duration: float, keys=None):
    """A ``FIGURES`` row cut down on the test side, in the style of
    ``repro.fuzz.shrink``: only the cells whose key is in ``keys`` (every
    cell when ``None``), each spec ending at ``duration`` seconds (flows
    that would start later are dropped) and a measurement start
    (``warmup`` / ``t0``) past the middle of the run moved to it."""
    from repro.experiments.scenario_spec import ScenarioSpec, spec_job

    def cells(seed: int) -> dict:
        out = {}
        for key, job in figure.cells(seed).items():
            if keys is not None and key not in keys:
                continue
            args = dict(job.kwargs)
            spec = ScenarioSpec.from_jsonable(args.pop("spec"))
            spec.duration = min(spec.duration, duration)
            spec.flows = [flow for flow in spec.flows
                          if flow.start_time < spec.duration]
            for name in ("warmup", "t0"):
                if name in args:
                    args[name] = min(args[name], spec.duration / 2.0)
            out[key] = spec_job(spec, args.pop("summary"), job.label, **args)
        return out

    return figure._replace(cells=cells)


def generated_specs():
    """Fuzz-generator specs covering every scheme label and every link kind:
    the sampled ones as drawn, the rest on a sampled spec's flows."""
    from dataclasses import replace

    from repro.experiments.scenario_spec import (LINK_KINDS, NATIVE, SCHEMES,
                                                 LinkSpec)
    from repro.fuzz.generator import ScenarioGen

    gen = ScenarioGen(seed=2)
    specs, schemes, kinds = [], set(), set()
    for index in range(200):
        spec = gen.sample(index)
        kind = spec.links[0].kind
        if spec.scheme not in schemes or kind not in kinds:
            specs.append(spec)
            schemes.add(spec.scheme)
            kinds.add(kind)
    base = next(spec for spec in specs
                if all(flow.cc == NATIVE for flow in spec.flows))
    # PK-ABC reads the future of a trace-driven link, so it runs on one.
    trace = next(spec for spec in specs if spec.links[0].kind == "cellular")
    specs += [replace(base, scheme=scheme,
                      links=trace.links if scheme == "pk-abc" else base.links)
              for scheme in sorted(set(SCHEMES) - schemes)]
    others = {"stepped": {"steps": [[0.0, 4e6], [0.7, 12e6], [1.3, 2e6]]},
              "wifi": {"mcs": ["alternating", 1, 7, 0.3]}}
    specs += [replace(base, links=[LinkSpec(kind, params)])
              for kind, params in others.items()]
    assert kinds | set(others) | {"trace_ref"} == set(LINK_KINDS)
    return specs
