"""WiFi experiments: Figs. 4, 5, 10 and 14.

* Fig. 4 — inter-ACK time against A-MPDU batch size: the relation is linear
  with slope ``S/R`` plus a size-independent overhead spread.
* Fig. 5 — link-rate prediction accuracy for a non-backlogged sender at
  several offered loads over three different links (MCS indices): the
  estimator stays within ~5 % of the true capacity once the offered load is
  high enough for full batches to be observable, and is capped at twice the
  offered load below that.
* Fig. 10 / Fig. 14 — throughput against 95th-percentile delay for ABC (three
  delay thresholds) and the end-to-end baselines on a live-like WiFi link
  whose MCS index alternates 1↔7 every 2 s (Fig. 10) or follows a Brownian
  walk in [3, 7] (Fig. 14), for one and two users.

These are the only experiments that wire a
:class:`~repro.simulator.scenario.Scenario` by hand (``fig4_inter_ack``,
``rate_prediction_cell`` and ``_run_wifi_case``) instead of describing it as
a :class:`~repro.experiments.scenario_spec.ScenarioSpec`: their bottleneck
is a :class:`~repro.wifi.mac.WiFiLink` whose MCS schedule, A-MPDU batching
and per-user queues no :class:`~repro.experiments.scenario_spec.LinkSpec`
kind describes, and their probes read the MAC and its rate estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count, cycle
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import SeedResultSet, result_metrics
from repro.aqm.codel import CoDelQdisc
from repro.aqm.droptail import DropTailQdisc
from repro.cc.registry import make_cc
from repro.core.params import ABCParams, WIFI_DEFAULTS
from repro.core.router import ABCRouterQdisc
from repro.experiments.runner import run_seed_grid
from repro.runtime.executor import SweepExecutor, SweepJob
from repro.simulator.qdisc import FifoQdisc
from repro.simulator.scenario import Scenario
from repro.simulator.traffic import RateLimitedSource
from repro.wifi.mac import WiFiLink, WiFiMacConfig
from repro.wifi.mcs import (AlternatingMCSSchedule, BrownianMCSSchedule,
                            FixedMCSSchedule)
from repro.wifi.rate_estimator import WiFiRateEstimator

#: End-to-end baselines evaluated on WiFi (§6.3 excludes Sprout and Verus,
#: which are cellular-specific).
WIFI_BASELINES: Sequence[str] = ("cubic+codel", "copa", "vegas", "bbr", "pcc",
                                 "cubic")


# ---------------------------------------------------------------------------
# Fig. 4 — inter-ACK time vs batch size
# ---------------------------------------------------------------------------
@dataclass
class InterAckSamples:
    batch_sizes: np.ndarray
    inter_ack_times_ms: np.ndarray
    fitted_slope_ms_per_frame: float
    expected_slope_ms_per_frame: float


def fig4_inter_ack(mcs_index: int = 5, offered_load_bps: float = 12e6,
                   duration: float = 30.0, seed: int = 3) -> InterAckSamples:
    """Collect (batch size, inter-ACK time) samples from the MAC model.

    A non-backlogged sender offers bursts of varying size (the paper's sender
    was "not backlogged and sent traffic at multiple different rates"), so the
    access point transmits A-MPDUs spanning the full range of batch sizes and
    the linear ``TIA(b) = b·S/R + h`` relationship is observable.
    """
    from repro.simulator.packet import Packet

    scenario = Scenario()
    config = WiFiMacConfig(seed=seed)
    link = WiFiLink(scenario.env, mcs=FixedMCSSchedule(mcs_index), config=config,
                    qdisc=FifoQdisc(buffer_packets=2000))
    scenario.add_custom_link(link, name="wifi")

    bursts = cycle((1, 2, 4, 8, 12, 16, 20, 24, 28, 32))
    seqs = count()
    gap = 0.04  # long enough that each burst is transmitted as its own batch

    def offer(now: float) -> None:
        for _ in range(next(bursts)):
            link.send(Packet(flow_id=0, seq=next(seqs)))

    scenario.every(gap, offer)
    scenario.run(duration)

    sizes = np.array([obs.batch_frames for obs in link.batch_log])
    times = np.array([obs.inter_ack_time for obs in link.batch_log]) * 1000.0
    if sizes.size >= 2 and np.ptp(sizes) > 0:
        slope = float(np.polyfit(sizes, times, 1)[0])
    else:
        slope = 0.0
    expected = config.frame_size_bytes * 8.0 / link.mcs.rate_at(0.0) * 1000.0
    return InterAckSamples(batch_sizes=sizes, inter_ack_times_ms=times,
                           fitted_slope_ms_per_frame=slope,
                           expected_slope_ms_per_frame=expected)


# ---------------------------------------------------------------------------
# Fig. 5 — link-rate prediction accuracy
# ---------------------------------------------------------------------------
@dataclass
class RatePredictionPoint:
    mcs_index: int
    offered_load_mbps: float
    true_capacity_mbps: float
    predicted_mbps: float
    capped_prediction_mbps: float

    @property
    def relative_error(self) -> float:
        if self.true_capacity_mbps <= 0:
            return 0.0
        return abs(self.predicted_mbps - self.true_capacity_mbps) / self.true_capacity_mbps


def rate_prediction_cell(mcs: int, fraction: float, duration: float,
                         seed: int) -> RatePredictionPoint:
    """One (MCS index, offered-load fraction) cell of the Fig. 5 grid."""
    scenario = Scenario()
    estimator = WiFiRateEstimator(max_batch_frames=32)
    link = WiFiLink(scenario.env, mcs=FixedMCSSchedule(mcs),
                    config=WiFiMacConfig(seed=seed),
                    qdisc=FifoQdisc(buffer_packets=2000),
                    estimator=estimator)
    scenario.add_custom_link(link, name=f"wifi-{mcs}")
    true_capacity = link.true_capacity_bps(0.0)
    offered = fraction * true_capacity
    source = RateLimitedSource(offered)
    scenario.add_flow(make_cc("cubic"), [link], rtt=0.02, source=source)
    scenario.run(duration)
    raw = estimator.estimate_bps(duration, apply_cap=False)
    capped = estimator.estimate_bps(duration, apply_cap=True)
    return RatePredictionPoint(
        mcs_index=mcs,
        offered_load_mbps=offered / 1e6,
        true_capacity_mbps=true_capacity / 1e6,
        predicted_mbps=raw / 1e6,
        capped_prediction_mbps=capped / 1e6,
    )


def rate_prediction_metrics(point: RatePredictionPoint) -> Dict[str, float]:
    """Numeric fields plus the derived relative error, for seed aggregation."""
    metrics = result_metrics(point)
    metrics["relative_error"] = point.relative_error
    return metrics


def fig5_rate_prediction(mcs_indices: Sequence[int] = (3, 5, 7),
                         load_fractions: Sequence[float] = (0.2, 0.4, 0.6, 0.8, 1.0),
                         duration: float = 20.0, seed: int = 5,
                         executor: Optional[SweepExecutor] = None,
                         seeds: Optional[Sequence[int]] = None
                         ) -> List[RatePredictionPoint]:
    """Sweep offered load on three links and record estimator accuracy.

    The seed drives the WiFi MAC model; with several ``seeds`` each (MCS,
    load) point is a :class:`~repro.analysis.stats.SeedResultSet`
    (attribute reads give the across-seed mean; ``relative_error`` is
    aggregated too).
    """
    def jobs_for_seed(s: int) -> List[SweepJob]:
        return [SweepJob(func=rate_prediction_cell,
                         kwargs=dict(mcs=mcs, fraction=fraction,
                                     duration=duration, seed=s),
                         label=f"fig5/seed{s}/mcs{mcs}/load{fraction:g}")
                for mcs in mcs_indices for fraction in load_fractions]

    return run_seed_grid(jobs_for_seed, seed, seeds, executor,
                         combine=partial(SeedResultSet,
                                         metrics=rate_prediction_metrics))


# ---------------------------------------------------------------------------
# Fig. 10 / Fig. 14 — throughput vs delay on a varying WiFi link
# ---------------------------------------------------------------------------
@dataclass
class WiFiSchemeResult:
    scheme: str
    throughput_mbps: float
    delay_p95_ms: float
    queuing_p95_ms: float
    utilization: float
    extra: dict = field(default_factory=dict)


def _make_wifi_link(scenario: Scenario, qdisc, mcs_mode: str, seed: int,
                    estimator: Optional[WiFiRateEstimator]) -> WiFiLink:
    if mcs_mode == "alternating":
        schedule = AlternatingMCSSchedule(low_index=1, high_index=7, period=2.0)
    elif mcs_mode == "brownian":
        schedule = BrownianMCSSchedule(min_index=3, max_index=7, period=2.0,
                                       seed=seed)
    else:
        raise ValueError("mcs_mode must be 'alternating' or 'brownian'")
    link = WiFiLink(scenario.env, mcs=schedule, config=WiFiMacConfig(seed=seed),
                    qdisc=qdisc, estimator=estimator)
    scenario.add_custom_link(link, name="wifi")
    return link


def _run_wifi_case(scheme: str, num_users: int, duration: float, rtt: float,
                   mcs_mode: str, seed: int,
                   abc_delay_threshold: Optional[float] = None) -> WiFiSchemeResult:
    scenario = Scenario()
    estimator: Optional[WiFiRateEstimator] = None
    if scheme == "abc":
        params = WIFI_DEFAULTS if abc_delay_threshold is None else (
            WIFI_DEFAULTS.with_overrides(delay_threshold=abc_delay_threshold))
        estimator = WiFiRateEstimator(max_batch_frames=32,
                                      window=params.measurement_window)
        qdisc = ABCRouterQdisc(params=params, buffer_packets=500,
                               capacity_fn=estimator.capacity_fn())
    elif scheme == "cubic+codel":
        qdisc = CoDelQdisc(buffer_packets=500)
    else:
        qdisc = DropTailQdisc(buffer_packets=500)
    link = _make_wifi_link(scenario, qdisc, mcs_mode, seed, estimator)

    sender_name = "cubic" if scheme == "cubic+codel" else scheme
    flows = [scenario.add_flow(make_cc(sender_name), [link], rtt=rtt,
                               label=f"{scheme}-{i}")
             for i in range(num_users)]
    result = scenario.run(duration)

    throughput = sum(result.flow_throughput_bps(f) for f in flows) / 1e6
    delay_p95 = result.aggregate_delay_percentile_ms(95)
    queuing_p95 = result.aggregate_delay_percentile_ms(95, kind="queuing")
    return WiFiSchemeResult(
        scheme=scheme,
        throughput_mbps=throughput,
        delay_p95_ms=delay_p95,
        queuing_p95_ms=queuing_p95,
        utilization=result.link_utilization(link),
    )


def fig10_wifi(num_users: int = 1, duration: float = 45.0, rtt: float = 0.04,
               mcs_mode: str = "alternating", seed: int = 9,
               abc_delay_thresholds: Sequence[float] = (0.02, 0.06, 0.1),
               baselines: Sequence[str] = WIFI_BASELINES,
               executor: Optional[SweepExecutor] = None,
               seeds: Optional[Sequence[int]] = None) -> List[WiFiSchemeResult]:
    """Reproduce Fig. 10 (alternating MCS) or Fig. 14 (``mcs_mode="brownian"``).

    Returns one row per scheme; ABC appears once per delay threshold with the
    scheme name ``abc_dt{ms}``.

    The seed drives the WiFi MAC model (and the Brownian MCS walk); with
    several ``seeds`` each row becomes a
    :class:`~repro.analysis.stats.SeedResultSet` across MAC realisations.
    """
    names = [f"abc_dt{int(round(threshold * 1000))}"
             for threshold in abc_delay_thresholds]

    def jobs_for_seed(s: int) -> List[SweepJob]:
        common = dict(num_users=num_users, duration=duration, rtt=rtt,
                      mcs_mode=mcs_mode, seed=s)
        return ([SweepJob(func=_run_wifi_case,
                          kwargs=dict(scheme="abc", **common,
                                      abc_delay_threshold=threshold),
                          label=f"wifi/seed{s}/{name}")
                 for name, threshold in zip(names, abc_delay_thresholds)]
                + [SweepJob(func=_run_wifi_case,
                            kwargs=dict(scheme=scheme, **common),
                            label=f"wifi/seed{s}/{scheme}")
                   for scheme in baselines])

    rows = run_seed_grid(jobs_for_seed, seed, seeds, executor)
    for name, row in zip(names, rows):
        # A SeedResultSet forwards ``scheme`` from its first seed's result.
        for res in getattr(row, "per_seed", (row,)):
            res.scheme = name
    return rows


def fig14_wifi_brownian(num_users: int = 1, duration: float = 45.0,
                        rtt: float = 0.04, seed: int = 13,
                        seeds: Optional[Sequence[int]] = None
                        ) -> List[WiFiSchemeResult]:
    """Appendix B variant of the WiFi experiment (Brownian MCS walk)."""
    return fig10_wifi(num_users=num_users, duration=duration, rtt=rtt,
                      mcs_mode="brownian", seed=seed, seeds=seeds)
