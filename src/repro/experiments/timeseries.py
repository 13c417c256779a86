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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import SeedAggregate, aggregate_metric_dicts
from repro.cellular.synthetic import lte_showcase_trace
from repro.cellular.trace import CellularTrace
from repro.experiments.runner import run_seed_grid, run_single_bottleneck
from repro.runtime.executor import SweepExecutor, SweepJob
from repro.runtime.trace_store import register_trace, resolve_link_spec
from repro.simulator.link import SquareWaveRate


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


def _timeseries_from_result(result, bin_size: float) -> TimeSeries:
    flow = result.extra["flow"]
    times, tput = flow.stats.throughput_timeseries(bin_size=bin_size)
    qt, qd = flow.stats.queuing_delay_timeseries(bin_size=bin_size)
    n = min(len(times), len(qt))
    return TimeSeries(
        scheme=result.scheme,
        times=times[:n],
        throughput_bps=tput[:n],
        queuing_delay_ms=qd[:n] * 1000.0,
        utilization=result.utilization,
        queuing_p95_ms=result.queuing_p95_ms,
    )


def timeseries_cell(scheme: str, link_spec, rtt: float, duration: float,
                    buffer_packets: int = 250,
                    bin_size: float = 0.5, seed: int = 0) -> TimeSeries:
    """Run one scheme and bin its stats into a picklable :class:`TimeSeries`.

    Module-level (and binning *inside* the job) so the live flow/scenario
    objects never cross a process boundary when the sweep runs on a pool.
    ``link_spec`` may be a :class:`~repro.runtime.trace_store.TraceRef`.
    """
    result = run_single_bottleneck(scheme, resolve_link_spec(link_spec),
                                   rtt=rtt, duration=duration,
                                   buffer_packets=buffer_packets, seed=seed)
    return _timeseries_from_result(result, bin_size)


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
                    duration: float = 30.0, rtt: float = 0.1,
                    buffer_packets: int = 250, bin_size: float = 0.5,
                    trace: Optional[CellularTrace] = None, seed: int = 7,
                    executor: Optional[SweepExecutor] = None,
                    jobs: Optional[int] = None,
                    cache_dir: Optional[str] = None,
                    seeds: Optional[Sequence[int]] = None
                    ) -> Dict[str, TimeSeries]:
    """Reproduce Fig. 1: each scheme over the same emulated LTE trace.

    The seed regenerates the LTE trace (unless pinned via ``trace=``); with
    several ``seeds`` each scheme's series is the across-seed mean.
    """
    capacities: Dict[int, np.ndarray] = {}

    def jobs_for_seed(s: int) -> List[SweepJob]:
        trace_s = trace if trace is not None else lte_showcase_trace(
            duration=duration, seed=s)
        _, capacities[s] = trace_s.rate_timeseries(bin_size=bin_size)
        ref = register_trace(trace_s)
        return [SweepJob(func=timeseries_cell,
                         kwargs=dict(scheme=sch, link_spec=ref, rtt=rtt,
                                     duration=duration,
                                     buffer_packets=buffer_packets,
                                     bin_size=bin_size, seed=0),
                         label=f"fig1/seed{s}/{sch}")
                for sch in schemes]

    out = dict(zip(schemes, run_seed_grid(
        jobs_for_seed, seed, seeds, executor, jobs, cache_dir,
        combine=lambda seeds, per_seed: _combine_seed_series(
            per_seed, [capacities[s] for s in seeds]))))
    if len(capacities) == 1:  # one seed: the cells' own series, no capacity yet
        (capacity,) = capacities.values()
        for series in out.values():
            series.capacity_bps = capacity[:len(series.times)]
    return out


def fig17_square_wave(schemes: Sequence[str] = ("abc", "rcp", "xcpw"),
                      low_mbps: float = 12.0, high_mbps: float = 24.0,
                      half_period: float = 0.5, duration: float = 10.0,
                      rtt: float = 0.1, bin_size: float = 0.25,
                      executor: Optional[SweepExecutor] = None,
                      jobs: Optional[int] = None,
                      cache_dir: Optional[str] = None,
                      seeds: Optional[Sequence[int]] = None
                      ) -> Dict[str, TimeSeries]:
    """Reproduce Fig. 17: explicit schemes on a 12↔24 Mbit/s square wave.

    The square-wave link is deterministic, so the seed only reseeds the
    per-cell simulation; with several ``seeds`` each scheme's series is the
    across-seed mean, as in :func:`fig1_timeseries`.
    """
    link = SquareWaveRate(low_mbps * 1e6, high_mbps * 1e6, half_period)

    def jobs_for_seed(s: int) -> List[SweepJob]:
        return [SweepJob(func=timeseries_cell,
                         kwargs=dict(scheme=sch, link_spec=link, rtt=rtt,
                                     duration=duration, bin_size=bin_size,
                                     seed=s),
                         label=f"fig17/seed{s}/{sch}")
                for sch in schemes]

    return dict(zip(schemes, run_seed_grid(
        jobs_for_seed, 0, seeds, executor, jobs, cache_dir,
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
