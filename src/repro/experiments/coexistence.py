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
  application-limited ABC flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import SeedResultSet
from repro.aqm import DropTailQdisc
from repro.cc import make_cc
from repro.cellular.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.core.coexistence import (DualQueueABCQdisc, MaxMinWeightController,
                                    ZombieListWeightController)
from repro.core.params import ABCParams
from repro.core.router import ABCRouterQdisc
from repro.experiments.runner import run_seed_grid
from repro.runtime.executor import SweepExecutor, SweepJob
from repro.simulator.link import SteppedRate
from repro.simulator.scenario import Scenario
from repro.simulator.traffic import FixedSizeSource, OnOffSource, RateLimitedSource


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


def _default_wireless_steps(duration: float, period: float = 5.0,
                            rates_mbps: Sequence[float] = (18, 6, 14, 4, 10, 22, 8, 16)
                            ) -> SteppedRate:
    steps = []
    t = 0.0
    index = 0
    while t < duration:
        steps.append((t, rates_mbps[index % len(rates_mbps)] * 1e6))
        t += period
        index += 1
    return SteppedRate(steps)


def fig6_cell(duration: float, wired_mbps: float, rtt: float,
              sample_interval: float, cross_traffic: bool,
              cross_schedule: Optional[Sequence[tuple]] = None,
              seed: int = 0) -> DualBottleneckTrace:
    """The Fig. 6 / Fig. 11 experiment (deterministic: ``seed`` is unused).

    Module-level with plain picklable kwargs so the entry points can route it
    through the sweep executor (pool fan-out + result cache).
    """
    del seed  # kept in the signature so cached results keep their keys
    scenario = Scenario()
    wireless_capacity = _default_wireless_steps(duration)
    params = ABCParams()
    wireless = scenario.add_rate_link(wireless_capacity,
                                      qdisc=ABCRouterQdisc(params=params,
                                                           buffer_packets=500),
                                      name="wireless")
    wired = scenario.add_rate_link(wired_mbps * 1e6,
                                   qdisc=DropTailQdisc(buffer_packets=100),
                                   name="wired")
    abc_flow = scenario.add_flow(make_cc("abc", params=params),
                                 [wireless, wired], rtt=rtt, label="abc")

    cross_flows = []
    if cross_traffic:
        if cross_schedule is None:
            third = duration / 3.0
            cross_schedule = [(third, 2 * third), (2 * third + 1e-9, duration)]
        # One Cubic cross-traffic flow per on-interval keeps the arrival
        # pattern simple and mirrors the paper's on-off cross traffic.
        cross_flows.append(scenario.add_flow(
            make_cc("cubic"), [wired], rtt=rtt,
            source=OnOffSource(list(cross_schedule)), label="cross"))

    # Sample windows and rates while the simulation runs.
    samples: List[tuple] = []
    cc = abc_flow.cc
    scenario.every(sample_interval, lambda now: samples.append(
        (now, cc.w_abc, cc.w_nonabc, wireless_capacity.rate_at(now))))
    scenario.run(duration)

    times = np.array([s[0] for s in samples])
    w_abc = np.array([s[1] for s in samples])
    w_cubic = np.array([min(s[2], 10_000.0) for s in samples])
    wireless_rate = np.array([s[3] for s in samples]) / 1e6

    t_bins, tput = abc_flow.stats.throughput_timeseries(bin_size=sample_interval,
                                                        t1=duration)
    _, queuing = abc_flow.stats.queuing_delay_timeseries(bin_size=sample_interval)
    n = min(len(times), len(tput), len(queuing))

    # Ideal rate: min(wireless rate, fair share of the wired link).
    ideal = []
    for i in range(n):
        now = times[i]
        fair_share = wired_mbps
        if cross_traffic and any(start <= now < stop for start, stop in cross_schedule):
            fair_share = wired_mbps / 2.0
        ideal.append(min(wireless_rate[i], fair_share))
    ideal_arr = np.array(ideal)
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


def fig6_nonabc_bottleneck(duration: float = 80.0, wired_mbps: float = 12.0,
                           rtt: float = 0.1, sample_interval: float = 0.25,
                           cross_traffic: bool = False,
                           cross_schedule: Optional[Sequence[tuple]] = None,
                           executor: Optional[SweepExecutor] = None,
                           jobs: Optional[int] = None,
                           cache_dir: Optional[str] = None
                           ) -> DualBottleneckTrace:
    """Run the wireless(ABC)+wired(drop-tail) experiment.

    With ``cross_traffic=True`` this is the Fig. 11 experiment: an on-off
    Cubic flow shares the wired link, so ABC's ideal rate becomes the minimum
    of the wireless rate and its fair share of the wired link.

    The run is routed through :func:`run_seed_grid`, so it honours
    ``REPRO_JOBS``/``REPRO_CACHE_DIR`` like the sweep figures.  The topology
    is deterministic, so its seed list is pinned to ``(0,)``.
    """
    schedule = (None if cross_schedule is None
                else [tuple(interval) for interval in cross_schedule])

    def jobs_for_seed(s: int) -> List[SweepJob]:
        return [SweepJob(func=fig6_cell,
                         kwargs=dict(duration=duration, wired_mbps=wired_mbps,
                                     rtt=rtt, sample_interval=sample_interval,
                                     cross_traffic=cross_traffic,
                                     cross_schedule=schedule, seed=s),
                         label="fig11" if cross_traffic else "fig6")]

    return run_seed_grid(jobs_for_seed, 0, (0,), executor, jobs,
                         cache_dir)[0]


def fig11_cross_traffic(duration: float = 80.0, **kwargs) -> DualBottleneckTrace:
    """Fig. 11 is Fig. 6 plus on-off cross traffic on the wired link."""
    return fig6_nonabc_bottleneck(duration=duration, cross_traffic=True, **kwargs)


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
    weight_history: List[tuple] = field(default_factory=list)

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


def fig7_cell(link_mbps: float, duration: float, rtt: float, stagger: float,
              seed: int = 17) -> CoexistenceResult:
    """One seed's run of the Fig. 7 staggered-arrival experiment.

    Module-level (controller built inside) so the entry point can route it
    through the sweep executor with plain picklable kwargs.
    """
    return _run_shared_bottleneck(
        link_mbps=link_mbps, duration=duration, rtt=rtt,
        n_abc=2, n_cubic=2, abc_starts=(0.0, stagger),
        cubic_starts=(2 * stagger, 3 * stagger),
        controller=MaxMinWeightController(interval=1.0),
        short_flow_load=0.0, warmup=3 * stagger, seed=seed)


def fig7_coexistence_timeseries(link_mbps: float = 24.0, duration: float = 120.0,
                                rtt: float = 0.1, stagger: float = 30.0,
                                executor: Optional[SweepExecutor] = None,
                                jobs: Optional[int] = None,
                                cache_dir: Optional[str] = None
                                ) -> CoexistenceResult:
    """Fig. 7: two ABC then two Cubic flows arrive one after another.

    Routed through :func:`run_seed_grid`.  The seed only drives the Poisson
    short-flow process, which Fig. 7 disables, so its seed list is pinned to
    ``(17,)``.
    """
    def jobs_for_seed(s: int) -> List[SweepJob]:
        return [SweepJob(func=fig7_cell,
                         kwargs=dict(link_mbps=link_mbps, duration=duration,
                                     rtt=rtt, stagger=stagger, seed=s),
                         label="fig7")]

    return run_seed_grid(jobs_for_seed, 17, (17,), executor, jobs,
                         cache_dir)[0]


def _run_shared_bottleneck(link_mbps: float, duration: float, rtt: float,
                           n_abc: int, n_cubic: int,
                           controller, short_flow_load: float,
                           abc_starts: Optional[Sequence[float]] = None,
                           cubic_starts: Optional[Sequence[float]] = None,
                           short_flow_bytes: int = 50_000,
                           warmup: float = 5.0, seed: int = 17
                           ) -> CoexistenceResult:
    params = ABCParams()
    scenario = Scenario()
    qdisc = DualQueueABCQdisc(params=params, buffer_packets=500,
                              controller=controller)
    link = scenario.add_rate_link(link_mbps * 1e6, qdisc=qdisc, name="shared")

    abc_flows = []
    for i in range(n_abc):
        start = abc_starts[i] if abc_starts else 0.0
        abc_flows.append(scenario.add_flow(make_cc("abc", params=params), [link],
                                           rtt=rtt, start_time=start,
                                           label=f"abc-{i}"))
    cubic_flows = []
    for i in range(n_cubic):
        start = cubic_starts[i] if cubic_starts else 0.0
        cubic_flows.append(scenario.add_flow(make_cc("cubic"), [link], rtt=rtt,
                                             start_time=start,
                                             label=f"cubic-{i}"))

    # Poisson arrivals of short non-ABC flows offering a fixed load.
    if short_flow_load > 0:
        rng = np.random.default_rng(seed)
        offered_bps = short_flow_load * link_mbps * 1e6
        arrival_rate = offered_bps / (short_flow_bytes * 8.0)
        t = warmup
        while t < duration:
            t += rng.exponential(1.0 / arrival_rate)
            if t >= duration:
                break
            scenario.add_flow(make_cc("cubic"), [link], rtt=rtt, start_time=t,
                              source=FixedSizeSource(short_flow_bytes),
                              label="short")

    scenario.run(duration)

    abc_tputs = [f.stats.throughput_bps(warmup, duration) / 1e6 for f in abc_flows]
    cubic_tputs = [f.stats.throughput_bps(warmup, duration) / 1e6 for f in cubic_flows]
    abc_q = [f.stats.delay_percentile(95, kind="queuing") * 1000 for f in abc_flows]
    cubic_q = [f.stats.delay_percentile(95, kind="queuing") * 1000 for f in cubic_flows]
    return CoexistenceResult(
        abc_throughputs_mbps=abc_tputs,
        cubic_throughputs_mbps=cubic_tputs,
        abc_queuing_p95_ms=float(np.mean(abc_q)) if abc_q else 0.0,
        cubic_queuing_p95_ms=float(np.mean(cubic_q)) if cubic_q else 0.0,
        weight_history=list(qdisc.weight_history),
    )


def coexistence_load_cell(load: float, strategy: str, link_mbps: float,
                          duration: float, rtt: float, n_long: int,
                          seed: int) -> CoexistenceResult:
    """One offered-load cell of the Fig. 12 sweep.

    The weight controller is built *inside* the cell from its ``strategy``
    name, so the job's kwargs stay plain picklable values.
    """
    if strategy == "maxmin":
        controller = MaxMinWeightController(interval=1.0)
    elif strategy == "zombie":
        controller = ZombieListWeightController(interval=1.0)
    else:
        raise ValueError("strategy must be 'maxmin' or 'zombie'")
    return _run_shared_bottleneck(
        link_mbps=link_mbps, duration=duration, rtt=rtt,
        n_abc=n_long, n_cubic=n_long, controller=controller,
        short_flow_load=load, seed=seed)


def coexistence_metrics(result: CoexistenceResult) -> Dict[str, float]:
    """The Fig. 12 metrics aggregated across seeds (properties included)."""
    return {
        "mean_abc_mbps": result.mean_abc_mbps,
        "mean_cubic_mbps": result.mean_cubic_mbps,
        "throughput_gap": result.throughput_gap,
        "abc_queuing_p95_ms": result.abc_queuing_p95_ms,
        "cubic_queuing_p95_ms": result.cubic_queuing_p95_ms,
    }


def fig12_offered_load_sweep(loads: Sequence[float] = (0.0625, 0.125, 0.25, 0.5),
                             strategy: str = "maxmin", link_mbps: float = 24.0,
                             duration: float = 40.0, rtt: float = 0.1,
                             n_long: int = 3, seed: int = 17,
                             executor: Optional[SweepExecutor] = None,
                             jobs: Optional[int] = None,
                             cache_dir: Optional[str] = None,
                             seeds: Optional[Sequence[int]] = None
                             ) -> Dict[float, CoexistenceResult]:
    """Fig. 12: long ABC and Cubic flows plus Poisson short flows.

    ``strategy`` selects the queue-weight controller: ``"maxmin"`` (the
    paper's approach) or ``"zombie"`` (RCP's flow-count equalisation, which
    over-serves the queue holding the short flows).

    The seed drives the Poisson short-flow arrival process; with several
    ``seeds`` each load's value becomes a
    :class:`~repro.analysis.stats.SeedResultSet` aggregating
    :func:`coexistence_metrics` across arrival patterns.
    """
    if strategy not in ("maxmin", "zombie"):
        raise ValueError("strategy must be 'maxmin' or 'zombie'")

    def jobs_for_seed(s: int) -> List[SweepJob]:
        return [SweepJob(func=coexistence_load_cell,
                         kwargs=dict(load=load, strategy=strategy,
                                     link_mbps=link_mbps, duration=duration,
                                     rtt=rtt, n_long=n_long, seed=s),
                         label=f"fig12/{strategy}/seed{s}/load{load:g}")
                for load in loads]

    return dict(zip(loads, run_seed_grid(
        jobs_for_seed, seed, seeds, executor, jobs, cache_dir,
        combine=partial(SeedResultSet, metrics=coexistence_metrics))))


# ---------------------------------------------------------------------------
# Fig. 13 — application-limited flows
# ---------------------------------------------------------------------------
@dataclass
class AppLimitedResult:
    utilization: float
    queuing_p95_ms: float
    backlogged_throughput_mbps: float
    app_limited_aggregate_mbps: float


def fig13_cell(num_app_limited: int, aggregate_app_rate_mbps: float,
               duration: float, rtt: float, seed: int) -> AppLimitedResult:
    """One seed's run of the Fig. 13 experiment (module-level sweep job).

    The seed drives the synthetic cellular trace, so the seed axis samples
    genuinely different capacity processes.
    """
    config = SyntheticTraceConfig(mean_rate_bps=12e6, min_rate_bps=2e6,
                                  max_rate_bps=24e6, volatility=0.2,
                                  outage_rate_per_s=0.0, name="app-limited")
    trace = synthetic_trace(config, duration, seed=seed)
    params = ABCParams()
    scenario = Scenario()
    link = scenario.add_cellular_link(trace,
                                      qdisc=ABCRouterQdisc(params=params,
                                                           buffer_packets=500),
                                      name="cell")
    backlogged = scenario.add_flow(make_cc("abc", params=params), [link],
                                   rtt=rtt, label="backlogged")
    per_flow_rate = aggregate_app_rate_mbps * 1e6 / num_app_limited
    app_flows = [scenario.add_flow(make_cc("abc", params=params), [link], rtt=rtt,
                                   source=RateLimitedSource(per_flow_rate),
                                   label=f"app-{i}")
                 for i in range(num_app_limited)]
    result = scenario.run(duration)
    aggregate = sum(result.flow_throughput_bps(f) for f in app_flows) / 1e6
    return AppLimitedResult(
        utilization=result.link_utilization(link),
        queuing_p95_ms=result.aggregate_delay_percentile_ms(95, kind="queuing"),
        backlogged_throughput_mbps=result.flow_throughput_bps(backlogged) / 1e6,
        app_limited_aggregate_mbps=aggregate,
    )


def fig13_app_limited(num_app_limited: int = 50,
                      aggregate_app_rate_mbps: float = 1.0,
                      duration: float = 30.0, rtt: float = 0.1,
                      seed: int = 23,
                      executor: Optional[SweepExecutor] = None,
                      jobs: Optional[int] = None,
                      cache_dir: Optional[str] = None,
                      seeds: Optional[Sequence[int]] = None):
    """Fig. 13: a backlogged ABC flow plus many application-limited ABC flows.

    The paper uses 200 application-limited flows; the default here is 50 (with
    the same 1 Mbit/s aggregate) to keep the runtime reasonable — the claim
    being tested (the backlogged flow still fills the link and delays stay
    low even though most flows cannot respond to accelerates) is unchanged.

    Routed through the sweep executor.  The seed regenerates the synthetic
    cellular trace; with several ``seeds`` the return value becomes a
    :class:`~repro.analysis.stats.SeedResultSet` over genuinely different
    capacity processes.
    """
    def jobs_for_seed(s: int) -> List[SweepJob]:
        return [SweepJob(func=fig13_cell,
                         kwargs=dict(num_app_limited=num_app_limited,
                                     aggregate_app_rate_mbps=aggregate_app_rate_mbps,
                                     duration=duration, rtt=rtt, seed=s),
                         label=f"fig13/seed{s}")]

    return run_seed_grid(jobs_for_seed, seed, seeds, executor, jobs,
                         cache_dir)[0]
