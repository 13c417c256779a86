"""Coexistence experiments: Figs. 6, 7, 11, 12 and 13.

* Fig. 6 — an ABC flow traversing an ABC wireless link (stepped rate) followed
  by a 12 Mbit/s wired drop-tail link: whichever of the two windows
  (``w_abc``, ``w_cubic``) is smaller controls the rate, and the other stays
  capped at 2× the in-flight packets.
* Fig. 11 — the same topology with on-off Cubic cross traffic on the wired
  link: ABC tracks the ideal rate (the min of the wireless rate and its fair
  share of the wired link).
* Fig. 7 / Fig. 12 — ABC and Cubic flows sharing an ABC bottleneck through the
  two-queue scheduler; Fig. 12 adds Poisson short flows and compares the
  max-min weight allocation against RCP's Zombie-List strategy.
* Fig. 13 — one backlogged ABC flow sharing the bottleneck with 200
  application-limited ABC flows (30 in the card, with the same 1 Mbit/s
  aggregate: the claim — the backlogged flow still fills the link and delays
  stay low though most flows cannot respond to accelerates — is unchanged).

Their rows are in :data:`repro.experiments.figures.FIGURES`; Fig. 7's shares
:func:`fig7_job` with :func:`fig7_coexistence_timeseries`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.experiments.runner import run_seed_grid
from repro.experiments.scenario_spec import (BASE_RTT, NATIVE, BuiltScenario,
                                             FlowSpec, LinkSpec, ScenarioSpec,
                                             spec_job)
from repro.obs.signals import SignalRecorder
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepJob

#: Fig. 6 / 11: the wireless link's rates (Mbit/s), each held for
#: ``WIRELESS_STEP_S``; the wired link's rate; the sampling interval (s).
WIRELESS_RATES_MBPS = (18, 6, 14, 4, 10, 22, 8, 16)
WIRELESS_STEP_S = 5.0
WIRED_MBPS = 12.0
FIG6_SAMPLE_INTERVAL = 0.25
#: Figs. 7 / 12: the shared bottleneck's rate (Mbit/s), and the size of
#: Fig. 12's Poisson short flows.
SHARED_LINK_MBPS = 24.0
SHORT_FLOW_BYTES = 50_000
#: Fig. 13: the application-limited flows' aggregate rate (Mbit/s).
APP_LIMITED_MBPS = 1.0


# ---------------------------------------------------------------------------
# Fig. 6 / Fig. 11 — non-ABC bottlenecks on the path
# ---------------------------------------------------------------------------
@dataclass
class DualBottleneckTrace:
    """Time series of the Fig. 6 / Fig. 11 experiment."""

    times: np.ndarray
    throughput_mbps: np.ndarray
    queuing_delay_ms: np.ndarray
    w_abc: np.ndarray
    w_cubic: np.ndarray
    wireless_rate_mbps: np.ndarray
    ideal_rate_mbps: np.ndarray
    tracking_error: float = 0.0


def _default_wireless_steps(duration: float) -> List[List[float]]:
    """``[start_s, rate_bps]`` steps: each rate in turn for
    ``WIRELESS_STEP_S``."""
    rates = WIRELESS_RATES_MBPS
    return [[index * WIRELESS_STEP_S, rates[index % len(rates)] * 1e6]
            for index in range(math.ceil(duration / WIRELESS_STEP_S))]


def fig6_spec(duration: float, wired_mbps: float, rtt: float,
              cross_schedule: Optional[Sequence[Sequence[float]]] = None
              ) -> ScenarioSpec:
    """The Fig. 6 topology; with ``cross_schedule`` (``[start, stop]``
    intervals) the on-off Cubic flow of Fig. 11 rides the wired hop only, as
    in the paper."""
    flows = [FlowSpec(rtt=rtt, label="abc")]
    if cross_schedule is not None:
        flows.append(FlowSpec(cc="cubic", rtt=rtt, path=[1], label="cross",
                              on_off=[list(on) for on in cross_schedule]))
    return ScenarioSpec(
        scheme="abc", duration=duration, flows=flows, links=[
            LinkSpec("stepped", {"steps": _default_wireless_steps(duration)},
                     buffer_packets=500, name="wireless"),
            LinkSpec("constant", {"rate_bps": wired_mbps * 1e6},
                     buffer_packets=100, role="wired", name="wired")])


def fig6_summary(built: BuiltScenario,
                 sample_interval: float) -> DualBottleneckTrace:
    """Run a :func:`fig6_spec` scenario, recording the ABC flow's two windows
    and the wireless rate every ``sample_interval`` (the ``fig6`` summary)."""
    scenario, abc_flow = built.scenario, built.flows[0]
    duration = built.spec.duration
    wired_mbps = built.spec.links[1].params["rate_bps"] / 1e6
    cross_schedule = [on for flow in built.spec.flows[1:]
                      for on in flow.on_off]

    signals = SignalRecorder(scenario, sample_interval)
    scenario.run(duration)
    windows = signals.flows[abc_flow.flow_id]
    times = np.array(signals.times)
    w_abc = np.array(windows["w_abc"])
    w_cubic = np.minimum(windows["w_nonabc"], 10_000.0)
    wireless_rate = np.array(signals.links["wireless"]["capacity_bps"]) / 1e6

    t_bins, tput = abc_flow.stats.throughput_timeseries(bin_size=sample_interval,
                                                        t1=duration)
    _, queuing = abc_flow.stats.queuing_delay_timeseries(bin_size=sample_interval)
    n = min(len(times), len(tput), len(queuing))

    # Ideal rate: min(wireless rate, fair share of the wired link).
    shared = [any(start <= now < stop for start, stop in cross_schedule)
              for now in times[:n]]
    ideal_arr = np.array([min(rate, wired_mbps / 2.0 if half else wired_mbps)
                          for rate, half in zip(wireless_rate[:n], shared)])
    achieved = tput[:n] / 1e6
    with np.errstate(divide="ignore", invalid="ignore"):
        errors = np.abs(achieved - ideal_arr) / np.maximum(ideal_arr, 1e-9)
    # Ignore the first few seconds of ramp-up when scoring tracking accuracy.
    settled = errors[times[:n] > 5.0]
    tracking_error = float(np.mean(settled)) if settled.size else float("nan")

    return DualBottleneckTrace(
        times=times[:n],
        throughput_mbps=achieved,
        queuing_delay_ms=queuing[:n] * 1000.0,
        w_abc=w_abc[:n],
        w_cubic=w_cubic[:n],
        wireless_rate_mbps=wireless_rate[:n],
        ideal_rate_mbps=ideal_arr,
        tracking_error=tracking_error,
    )


# ---------------------------------------------------------------------------
# Fig. 7 / Fig. 12 — sharing an ABC bottleneck with non-ABC flows
# ---------------------------------------------------------------------------
@dataclass
class CoexistenceResult:
    """Long-flow throughputs under the two-queue ABC scheduler."""

    abc_throughputs_mbps: List[float]
    cubic_throughputs_mbps: List[float]
    abc_queuing_p95_ms: float
    cubic_queuing_p95_ms: float

    @property
    def mean_abc_mbps(self) -> float:
        return float(np.mean(self.abc_throughputs_mbps)) if self.abc_throughputs_mbps else 0.0

    @property
    def mean_cubic_mbps(self) -> float:
        return float(np.mean(self.cubic_throughputs_mbps)) if self.cubic_throughputs_mbps else 0.0

    @property
    def throughput_gap(self) -> float:
        """Relative difference between mean Cubic and mean ABC throughput."""
        denom = max(self.mean_abc_mbps, 1e-9)
        return (self.mean_cubic_mbps - self.mean_abc_mbps) / denom


def fig7_job(duration: float, stagger: float) -> SweepJob:
    """Fig. 7's one cell: two ABC then two Cubic flows arrive ``stagger``
    apart, measured once the last has arrived."""
    return spec_job(shared_bottleneck_spec(
        SHARED_LINK_MBPS, duration, BASE_RTT, n_abc=2, n_cubic=2,
        abc_starts=(0.0, stagger), cubic_starts=(2 * stagger, 3 * stagger)),
        "coexistence", "fig7", warmup=3 * stagger)


def fig7_coexistence_timeseries(duration: float = 120.0,
                                stagger: float = 30.0,
                                executor: Optional[SweepExecutor] = None
                                ) -> CoexistenceResult:
    """Fig. 7: two ABC then two Cubic flows arrive one after another.

    Routed through :func:`run_seed_grid`.  The seed only drives the Poisson
    short-flow process, which Fig. 7 disables, so its seed list is pinned to
    ``(17,)``.
    """
    job = fig7_job(duration, stagger)
    return run_seed_grid(lambda s: [job], 17, (17,), executor)[0]


def shared_bottleneck_spec(link_mbps: float, duration: float, rtt: float,
                           n_abc: int, n_cubic: int, strategy: str = "maxmin",
                           short_flow_load: float = 0.0,
                           abc_starts: Optional[Sequence[float]] = None,
                           cubic_starts: Optional[Sequence[float]] = None,
                           warmup: float = 5.0, seed: int = 17
                           ) -> ScenarioSpec:
    """ABC and Cubic flows on one dual-queue ABC bottleneck whose weight
    controller is ``strategy`` (``"maxmin"`` or ``"zombie"``), plus Poisson
    arrivals of short Cubic flows (seeded by ``seed``) offering
    ``short_flow_load`` of the link from ``warmup`` on."""
    flows = [FlowSpec(rtt=rtt, start_time=abc_starts[i] if abc_starts else 0.0,
                      label=f"abc-{i}") for i in range(n_abc)]
    flows += [FlowSpec(cc="cubic", rtt=rtt,
                       start_time=cubic_starts[i] if cubic_starts else 0.0,
                       label=f"cubic-{i}") for i in range(n_cubic)]

    # Poisson arrivals of short non-ABC flows offering a fixed load.
    if short_flow_load > 0:
        rng = np.random.default_rng(seed)
        offered_bps = short_flow_load * link_mbps * 1e6
        arrival_rate = offered_bps / (SHORT_FLOW_BYTES * 8.0)
        t = warmup
        while t < duration:
            t += rng.exponential(1.0 / arrival_rate)
            if t >= duration:
                break
            flows.append(FlowSpec(cc="cubic", rtt=rtt, start_time=float(t),
                                  size_bytes=SHORT_FLOW_BYTES, label="short"))

    return ScenarioSpec(
        scheme="abc", duration=duration, flows=flows, links=[LinkSpec(
            "constant", {"rate_bps": link_mbps * 1e6}, buffer_packets=500,
            name="shared", qdisc=strategy)])


def coexistence_summary(built: BuiltScenario,
                        warmup: float) -> CoexistenceResult:
    """Run a :func:`shared_bottleneck_spec` scenario and measure its long
    flows from ``warmup`` on (the ``coexistence`` summary)."""
    duration = built.spec.duration
    built.scenario.run(duration)
    long_flows = [(spec.cc, flow) for spec, flow in zip(
        built.spec.flows, built.flows) if spec.size_bytes is None]
    abc_flows = [flow for cc, flow in long_flows if cc == NATIVE]
    cubic_flows = [flow for cc, flow in long_flows if cc != NATIVE]

    abc_tputs = [f.stats.throughput_bps(warmup, duration) / 1e6 for f in abc_flows]
    cubic_tputs = [f.stats.throughput_bps(warmup, duration) / 1e6 for f in cubic_flows]
    abc_q = [f.stats.delay_percentile(95, kind="queuing") * 1000 for f in abc_flows]
    cubic_q = [f.stats.delay_percentile(95, kind="queuing") * 1000 for f in cubic_flows]
    return CoexistenceResult(
        abc_throughputs_mbps=abc_tputs,
        cubic_throughputs_mbps=cubic_tputs,
        abc_queuing_p95_ms=float(np.mean(abc_q)) if abc_q else 0.0,
        cubic_queuing_p95_ms=float(np.mean(cubic_q)) if cubic_q else 0.0,
    )


# ---------------------------------------------------------------------------
# Fig. 13 — application-limited flows
# ---------------------------------------------------------------------------
@dataclass
class AppLimitedResult:
    utilization: float
    queuing_p95_ms: float
    backlogged_throughput_mbps: float
    app_limited_aggregate_mbps: float


def app_limited_spec(num_app_limited: int, aggregate_app_rate_mbps: float,
                     duration: float, rtt: float, seed: int) -> ScenarioSpec:
    """One backlogged ABC flow plus ``num_app_limited`` application-limited
    ABC flows on a synthetic cellular link whose trace ``seed`` drives."""
    per_flow_rate = aggregate_app_rate_mbps * 1e6 / num_app_limited
    flows = [FlowSpec(rtt=rtt, label="backlogged")]
    flows += [FlowSpec(rtt=rtt, app_rate_bps=per_flow_rate, label=f"app-{i}")
              for i in range(num_app_limited)]
    return ScenarioSpec(
        scheme="abc", duration=duration, flows=flows, links=[LinkSpec(
            "cellular", {"mean_rate_bps": 12e6, "min_rate_bps": 2e6,
                         "max_rate_bps": 24e6, "volatility": 0.2,
                         "outage_rate_per_s": 0.0, "trace_seed": seed},
            buffer_packets=500, name="cell")])


def app_limited_summary(built: BuiltScenario) -> AppLimitedResult:
    """The ``app_limited`` summary: run an :func:`app_limited_spec` cell."""
    result = built.scenario.run(built.spec.duration)
    link = built.scenario.links[0]
    backlogged, *app_flows = built.flows
    aggregate = sum(result.flow_throughput_bps(f) for f in app_flows) / 1e6
    return AppLimitedResult(
        utilization=result.link_utilization(link),
        queuing_p95_ms=result.aggregate_delay_percentile_ms(95, kind="queuing"),
        backlogged_throughput_mbps=result.flow_throughput_bps(backlogged) / 1e6,
        app_limited_aggregate_mbps=aggregate,
    )
