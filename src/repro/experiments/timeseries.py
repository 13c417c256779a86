"""Time-series experiments: Fig. 1 (motivation) and Fig. 17 (explicit schemes).

Fig. 1 runs Cubic, Verus, Cubic+CoDel and ABC over the same emulated LTE trace
and plots achieved throughput against link capacity plus the queuing delay
over time.  Fig. 17 runs ABC, RCP and XCPw over a square-wave link whose
capacity alternates between 12 and 24 Mbit/s every 500 ms.

Both entry points take ``seeds=`` (default: the ``REPRO_SEEDS`` environment
variable), the seed axis of :func:`~repro.experiments.runner.run_seed_grid`.
Fig. 1's seed regenerates the LTE trace (the per-cell simulation seed stays
0); Fig. 17's link is deterministic, so its seed is the simulation seed.  With
several seeds the returned :class:`TimeSeries` holds the across-seed mean
curves, with the scalar metrics' aggregates (mean/stdev/95 % CI) in
``TimeSeries.seed_stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import SeedAggregate, aggregate_metric_dicts
from repro.cellular.synthetic import lte_showcase_trace
from repro.cellular.trace import RATE_BIN, CellularTrace
from repro.experiments.runner import (run_seed_grid, single_bottleneck_spec,
                                      single_bottleneck_summary)
from repro.experiments.scenario_spec import BuiltScenario, LinkSpec, spec_job
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepJob
from repro.runtime.trace_store import register_trace

#: Fig. 17's square wave: its low and high rates (Mbit/s).
SQUARE_LOW_MBPS = 12.0
SQUARE_HIGH_MBPS = 24.0
#: Fig. 17's bin width (s).
SQUARE_BIN = 0.25


@dataclass
class TimeSeries:
    """One scheme's throughput/queuing-delay time series plus the capacity.

    For multi-seed runs the arrays are across-seed means (trimmed to the
    shortest seed's bin count) and ``seed_stats`` maps the scalar metrics
    (``utilization``, ``queuing_p95_ms``) to their
    :class:`~repro.analysis.stats.SeedAggregate`.
    """

    scheme: str
    times: np.ndarray
    throughput_bps: np.ndarray
    queuing_delay_ms: np.ndarray
    capacity_bps: Optional[np.ndarray] = None
    utilization: float = 0.0
    queuing_p95_ms: float = 0.0
    seed_stats: Optional[Dict[str, SeedAggregate]] = None


def timeseries_summary(built: BuiltScenario,
                       bin_size: float = 0.5) -> TimeSeries:
    """Run a single-bottleneck scenario and bin its flow's stats into a
    picklable :class:`TimeSeries` (the ``timeseries`` summary)."""
    result = single_bottleneck_summary(built)
    stats = built.flows[0].stats
    times, tput = stats.throughput_timeseries(bin_size=bin_size)
    qt, qd = stats.queuing_delay_timeseries(bin_size=bin_size)
    n = min(len(times), len(qt))
    return TimeSeries(
        scheme=result.scheme,
        times=times[:n],
        throughput_bps=tput[:n],
        queuing_delay_ms=qd[:n] * 1000.0,
        utilization=result.utilization,
        queuing_p95_ms=result.queuing_p95_ms,
    )


def _combine_seed_series(series_list: Sequence[TimeSeries],
                         capacities: Sequence[np.ndarray] = ()) -> TimeSeries:
    """Average per-seed series into one mean-curve :class:`TimeSeries`."""
    n = min(len(ts.times) for ts in series_list)
    capacity = None
    if capacities:
        n = min(n, min(len(c) for c in capacities))
        capacity = np.mean([c[:n] for c in capacities], axis=0)
    stats = aggregate_metric_dicts(
        [{"utilization": ts.utilization, "queuing_p95_ms": ts.queuing_p95_ms}
         for ts in series_list])
    return TimeSeries(
        scheme=series_list[0].scheme,
        times=series_list[0].times[:n],
        throughput_bps=np.mean([ts.throughput_bps[:n] for ts in series_list],
                               axis=0),
        queuing_delay_ms=np.mean([ts.queuing_delay_ms[:n]
                                  for ts in series_list], axis=0),
        capacity_bps=capacity,
        utilization=stats["utilization"].mean,
        queuing_p95_ms=stats["queuing_p95_ms"].mean,
        seed_stats=stats,
    )


def fig1_timeseries(schemes: Sequence[str] = ("cubic", "verus", "cubic+codel", "abc"),
                    duration: float = 30.0, buffer_packets: int = 250,
                    trace: Optional[CellularTrace] = None, seed: int = 7,
                    executor: Optional[SweepExecutor] = None,
                    seeds: Optional[Sequence[int]] = None
                    ) -> Dict[str, TimeSeries]:
    """Reproduce Fig. 1: each scheme over the same emulated LTE trace.

    The seed regenerates the LTE trace (unless pinned via ``trace=``); with
    several ``seeds`` each scheme's series is the across-seed mean.  Flows
    and capacity are binned alike, ``RATE_BIN`` wide.
    """
    capacities: Dict[int, np.ndarray] = {}

    def jobs_for_seed(s: int) -> List[SweepJob]:
        trace_s = trace if trace is not None else lte_showcase_trace(
            duration=duration, seed=s)
        _, capacities[s] = trace_s.rate_timeseries()
        ref = register_trace(trace_s)
        return [spec_job(single_bottleneck_spec(
                    sch, ref, duration=duration,
                    buffer_packets=buffer_packets), "timeseries",
                    f"fig1/seed{s}/{sch}", bin_size=RATE_BIN)
                for sch in schemes]

    out = dict(zip(schemes, run_seed_grid(
        jobs_for_seed, seed, seeds, executor,
        combine=lambda seeds, per_seed: _combine_seed_series(
            per_seed, [capacities[s] for s in seeds]))))
    if len(capacities) == 1:  # one seed: the cells' own series, no capacity yet
        (capacity,) = capacities.values()
        for series in out.values():
            series.capacity_bps = capacity[:len(series.times)]
    return out


def fig17_square_wave(schemes: Sequence[str] = ("abc", "rcp", "xcpw"),
                      half_period: float = 0.5, duration: float = 10.0,
                      executor: Optional[SweepExecutor] = None,
                      seeds: Optional[Sequence[int]] = None
                      ) -> Dict[str, TimeSeries]:
    """Reproduce Fig. 17: explicit schemes on a 12↔24 Mbit/s square wave.

    The square-wave link is deterministic, so the seed only reseeds the
    per-cell simulation; with several ``seeds`` each scheme's series is the
    across-seed mean, as in :func:`fig1_timeseries`.
    """
    link = LinkSpec("square", {"low_bps": SQUARE_LOW_MBPS * 1e6,
                               "high_bps": SQUARE_HIGH_MBPS * 1e6,
                               "half_period": float(half_period)})

    def jobs_for_seed(s: int) -> List[SweepJob]:
        return [spec_job(single_bottleneck_spec(
                    sch, link, duration=duration, seed=s),
                    "timeseries", f"fig17/seed{s}/{sch}", bin_size=SQUARE_BIN)
                for sch in schemes]

    return dict(zip(schemes, run_seed_grid(
        jobs_for_seed, 0, seeds, executor,
        combine=lambda seeds, per_seed: _combine_seed_series(per_seed))))


def summarize_timeseries(series: Dict[str, TimeSeries]) -> list[dict]:
    """Per-scheme utilisation and p95 queuing delay rows for printing."""
    rows = []
    for scheme, ts in series.items():
        rows.append({
            "scheme": scheme,
            "utilization": ts.utilization,
            "queuing_p95_ms": ts.queuing_p95_ms,
            "mean_throughput_mbps": float(np.mean(ts.throughput_bps)) / 1e6
            if ts.throughput_bps.size else 0.0,
        })
    return rows
