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

Figs. 5, 10 and 14 are :class:`~repro.experiments.scenario_spec.ScenarioSpec`
cells on a ``wifi`` link (an MCS schedule, plus the rate estimator),
run by the ``rate_prediction`` and ``wifi`` summaries, like every other
flow-carrying figure.  Fig. 4 is the one experiment in the repo that wires a
:class:`~repro.simulator.scenario.Scenario` by hand and runs in-process: it
pushes raw packets straight into the MAC, with no flow, sender or receiver,
and a spec needs at least one flow (:meth:`ScenarioSpec.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import count, cycle
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import SeedResultSet, result_metrics
from repro.core.params import WIFI_DEFAULTS
from repro.experiments.runner import run_seed_grid
from repro.experiments.scenario_spec import (BuiltScenario, FlowSpec,
                                             LinkSpec, ScenarioSpec, spec_job)
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepJob
from repro.simulator.qdisc import FifoQdisc
from repro.simulator.scenario import Scenario
from repro.wifi.mac import WiFiLink, WiFiMacConfig
from repro.wifi.mcs import FixedMCSSchedule, mcs_rate_bps

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


def fig4_inter_ack(mcs_index: int = 5, duration: float = 30.0,
                   seed: int = 3) -> InterAckSamples:
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


def rate_prediction_spec(mcs: int, fraction: float, duration: float,
                         seed: int) -> ScenarioSpec:
    """One (MCS index, offered-load fraction) cell of the Fig. 5 grid: a
    Cubic sender offering ``fraction`` of the link's backlogged capacity
    over a fixed-MCS link that carries the rate estimator."""
    offered = fraction * WiFiMacConfig().capacity_bps(mcs_rate_bps(mcs))
    return ScenarioSpec(
        scheme="cubic", duration=duration, abc_params=WIFI_DEFAULTS,
        sim_seed=seed, flows=[FlowSpec(rtt=0.02, app_rate_bps=offered)],
        links=[LinkSpec("wifi", {"mcs": ["fixed", mcs]}, buffer_packets=2000,
                        name=f"wifi-{mcs}")])


def rate_prediction_summary(built: BuiltScenario) -> RatePredictionPoint:
    """Run a :func:`rate_prediction_spec` scenario and read the estimator
    against the true capacity (the ``rate_prediction`` summary)."""
    duration = built.spec.duration
    built.scenario.run(duration)
    link = built.scenario.links[0]
    raw = link.estimator.estimate_bps(duration, apply_cap=False)
    capped = link.estimator.estimate_bps(duration, apply_cap=True)
    return RatePredictionPoint(
        mcs_index=link.mcs.index,
        offered_load_mbps=built.spec.flows[0].app_rate_bps / 1e6,
        true_capacity_mbps=link.true_capacity_bps(0.0) / 1e6,
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
        return [spec_job(rate_prediction_spec(mcs, fraction, duration, s),
                         "rate_prediction",
                         f"fig5/seed{s}/mcs{mcs}/load{fraction:g}")
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


def wifi_case_spec(scheme: str, num_users: int, duration: float, rtt: float,
                   mcs_mode: str, seed: int,
                   abc_delay_threshold: Optional[float] = None
                   ) -> ScenarioSpec:
    """``num_users`` backlogged flows of ``scheme`` on a varying-MCS link;
    ``seed`` drives the MAC (and the Brownian walk).  ABC's router reads
    the link's rate estimator."""
    mcs = {"alternating": ["alternating", 1, 7, 2.0],
           "brownian": ["brownian", 3, 7, 2.0]}.get(mcs_mode)
    if mcs is None:
        raise ValueError("mcs_mode must be 'alternating' or 'brownian'")
    params = WIFI_DEFAULTS if abc_delay_threshold is None else (
        WIFI_DEFAULTS.with_overrides(delay_threshold=abc_delay_threshold))
    return ScenarioSpec(
        scheme=scheme, duration=duration, abc_params=params, sim_seed=seed,
        links=[LinkSpec("wifi", {"mcs": mcs}, buffer_packets=500,
                        name="wifi")],
        flows=[FlowSpec(rtt=rtt, label=f"{scheme}-{i}")
               for i in range(num_users)])


def wifi_summary(built: BuiltScenario) -> WiFiSchemeResult:
    """Run a :func:`wifi_case_spec` scenario and measure its users together
    (the ``wifi`` summary)."""
    result = built.scenario.run(built.spec.duration)
    return WiFiSchemeResult(
        scheme=built.spec.scheme,
        throughput_mbps=sum(result.flow_throughput_bps(f)
                            for f in built.flows) / 1e6,
        delay_p95_ms=result.aggregate_delay_percentile_ms(95),
        queuing_p95_ms=result.aggregate_delay_percentile_ms(95,
                                                            kind="queuing"),
        utilization=result.link_utilization(built.scenario.links[0]),
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
        cases = [("abc", name, threshold)
                 for name, threshold in zip(names, abc_delay_thresholds)]
        cases += [(scheme, scheme, None) for scheme in baselines]
        return [spec_job(wifi_case_spec(scheme, num_users, duration, rtt,
                                        mcs_mode, s, threshold),
                         "wifi", f"wifi/seed{s}/{name}")
                for scheme, name, threshold in cases]

    rows = run_seed_grid(jobs_for_seed, seed, seeds, executor)
    for name, row in zip(names, rows):
        # A SeedResultSet forwards ``scheme`` from its first seed's result.
        for res in getattr(row, "per_seed", (row,)):
            res.scheme = name
    return rows


def fig14_wifi_brownian(num_users: int = 1, duration: float = 45.0,
                        rtt: float = 0.04, seed: int = 13,
                        executor: Optional[SweepExecutor] = None,
                        seeds: Optional[Sequence[int]] = None
                        ) -> List[WiFiSchemeResult]:
    """Appendix B variant of the WiFi experiment (Brownian MCS walk)."""
    return fig10_wifi(num_users=num_users, duration=duration, rtt=rtt,
                      mcs_mode="brownian", seed=seed, executor=executor,
                      seeds=seeds)
