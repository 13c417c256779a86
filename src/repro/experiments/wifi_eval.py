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
cells on a ``wifi`` link (its PHY rate, plus the rate estimator),
run by the ``rate_prediction`` and ``wifi`` summaries, like every other
flow-carrying figure; their rows are in
:data:`repro.experiments.figures.FIGURES`, and Figs. 10 and 14 share
:func:`wifi_jobs` with :func:`fig10_wifi`.  Fig. 4 is the one experiment in the repo that wires a
:class:`~repro.simulator.scenario.Scenario` by hand and runs in-process: it
pushes raw packets straight into the MAC, with no flow, sender or receiver,
and a spec needs at least one flow (:meth:`ScenarioSpec.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count, cycle
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.params import WIFI_DEFAULTS
from repro.experiments.runner import run_seed_grid
from repro.experiments.scenario_spec import (BuiltScenario, FlowSpec,
                                             LinkSpec, ScenarioSpec, spec_job)
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepJob
from repro.simulator.link import ConstantRate
from repro.simulator.qdisc import FifoQdisc
from repro.simulator.scenario import Scenario
from repro.wifi.mac import WiFiLink, backlogged_capacity_bps
from repro.wifi.mcs import mcs_rate_bps

#: End-to-end baselines evaluated on WiFi (§6.3 excludes Sprout and Verus,
#: which are cellular-specific).
WIFI_BASELINES: Sequence[str] = ("cubic+codel", "copa", "vegas", "bbr", "pcc",
                                 "cubic")
#: The round-trip time (s) of Figs. 10 and 14's flows.
WIFI_RTT = 0.04


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
    from repro.simulator.packet import MTU, Packet

    scenario = Scenario()
    link = WiFiLink(scenario.env, ConstantRate(mcs_rate_bps(mcs_index)),
                    seed=seed, qdisc=FifoQdisc(buffer_packets=2000))
    scenario.add_custom_link(link)

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
    expected = MTU * 8.0 / mcs_rate_bps(mcs_index) * 1000.0
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
    offered = fraction * backlogged_capacity_bps(mcs_rate_bps(mcs))
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
        mcs_index=built.spec.links[0].params["mcs"][1],
        offered_load_mbps=built.spec.flows[0].app_rate_bps / 1e6,
        true_capacity_mbps=link.true_capacity_bps(0.0) / 1e6,
        predicted_mbps=raw / 1e6,
        capped_prediction_mbps=capped / 1e6,
    )


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


def wifi_jobs(num_users: int, duration: float, mcs_mode: str, seed: int,
              abc_delay_thresholds: Sequence[float],
              baselines: Sequence[str]) -> Dict[str, SweepJob]:
    """One seed's Fig. 10 / Fig. 14 cells, keyed by row name: ABC once per
    delay threshold (``abc_dt{ms}``), then each baseline."""
    cases = [(f"abc_dt{int(round(threshold * 1000))}", "abc", threshold)
             for threshold in abc_delay_thresholds]
    cases += [(scheme, scheme, None) for scheme in baselines]
    return {name: spec_job(wifi_case_spec(scheme, num_users, duration,
                                          WIFI_RTT, mcs_mode, seed,
                                          threshold),
                           "wifi", f"wifi/seed{seed}/{name}")
            for name, scheme, threshold in cases}


def fig10_wifi(num_users: int = 1, duration: float = 45.0, seed: int = 9,
               abc_delay_thresholds: Sequence[float] = (0.02, 0.06, 0.1),
               baselines: Sequence[str] = WIFI_BASELINES,
               executor: Optional[SweepExecutor] = None
               ) -> List[WiFiSchemeResult]:
    """Reproduce Fig. 10: the alternating-MCS link, one row per scheme; ABC
    appears once per delay threshold with the scheme name ``abc_dt{ms}``.

    The seed drives the WiFi MAC model; with several ``REPRO_SEEDS`` each
    row becomes a :class:`~repro.analysis.stats.SeedResultSet` across MAC
    realisations.
    """
    names: List[str] = []

    def jobs_for_seed(s: int) -> List[SweepJob]:
        jobs = wifi_jobs(num_users, duration, "alternating", s,
                         abc_delay_thresholds, baselines)
        names[:] = jobs
        return list(jobs.values())

    rows = run_seed_grid(jobs_for_seed, seed, executor=executor)
    for name, row in zip(names, rows):
        # ``wifi_summary`` reports an ABC row as plain ``abc``; a
        # SeedResultSet forwards ``scheme`` from its first seed's result.
        for res in getattr(row, "per_seed", (row,)):
            res.scheme = name
    return rows
