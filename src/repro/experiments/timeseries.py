"""Time-series experiments: Fig. 1 (motivation) and Fig. 17 (explicit schemes).

Fig. 1 runs Cubic, Verus, Cubic+CoDel and ABC over the same emulated LTE trace
and plots achieved throughput against link capacity plus the queuing delay
over time.  Fig. 17 runs ABC, RCP and XCPw over a square-wave link whose
capacity alternates between 12 and 24 Mbit/s every 500 ms.

Both entry points take ``seeds=`` (default: the ``REPRO_SEEDS`` environment
variable).  With several seeds, Fig. 1 regenerates its LTE trace per seed and
the returned :class:`TimeSeries` holds the across-seed mean curves, with the
scalar metrics' aggregates (mean/stdev/95 % CI) in ``TimeSeries.seed_stats``;
the default/single-seed output is the legacy point estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import (SeedAggregate, aggregate_metric_dicts,
                                  split_by_seed)
from repro.cellular.synthetic import lte_showcase_trace
from repro.cellular.trace import CellularTrace
from repro.config import resolve_seeds
from repro.experiments.runner import run_single_bottleneck
from repro.runtime.executor import SweepExecutor, SweepJob, get_executor
from repro.runtime.trace_store import register_trace, resolve_link_spec
from repro.simulator.link import SquareWaveRate


@dataclass
class TimeSeries:
    """One scheme's throughput/queuing-delay time series plus the capacity.

    For multi-seed runs the arrays are across-seed means (trimmed to the
    shortest seed's bin count), ``n_seeds`` > 1, and ``seed_stats`` maps the
    scalar metrics (``utilization``, ``queuing_p95_ms``) to their
    :class:`~repro.analysis.stats.SeedAggregate`.
    """

    scheme: str
    times: np.ndarray
    throughput_bps: np.ndarray
    queuing_delay_ms: np.ndarray
    capacity_bps: Optional[np.ndarray] = None
    utilization: float = 0.0
    queuing_p95_ms: float = 0.0
    n_seeds: int = 1
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


def _combine_seed_series(scheme: str, series_list: Sequence[TimeSeries],
                         capacities: Sequence[Optional[np.ndarray]],
                         seed_list: Sequence[int]) -> TimeSeries:
    """Average per-seed series into one mean-curve :class:`TimeSeries`."""
    n = min(len(ts.times) for ts in series_list)
    capacity = None
    usable = [c for c in capacities if c is not None]
    if usable:
        n = min(n, min(len(c) for c in usable))
        capacity = np.mean([c[:n] for c in usable], axis=0)
    stats = aggregate_metric_dicts(
        [{"utilization": ts.utilization, "queuing_p95_ms": ts.queuing_p95_ms}
         for ts in series_list])
    return TimeSeries(
        scheme=scheme,
        times=series_list[0].times[:n],
        throughput_bps=np.mean([ts.throughput_bps[:n] for ts in series_list],
                               axis=0),
        queuing_delay_ms=np.mean([ts.queuing_delay_ms[:n]
                                  for ts in series_list], axis=0),
        capacity_bps=capacity,
        utilization=stats["utilization"].mean,
        queuing_p95_ms=stats["queuing_p95_ms"].mean,
        n_seeds=len(seed_list),
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

    With multiple ``seeds`` the LTE trace is regenerated per seed (unless
    pinned via ``trace=``) and each scheme's series is the across-seed mean.
    """
    seeds = resolve_seeds(seeds)
    seed_list = (seed,) if seeds is None else seeds
    multi = len(seed_list) > 1
    executor = get_executor(executor, jobs=jobs, cache_dir=cache_dir)

    pinned_ref = register_trace(trace) if trace is not None else None
    sweep_jobs = []
    capacities: List[np.ndarray] = []
    for s in seed_list:
        trace_s = trace if trace is not None else lte_showcase_trace(
            duration=duration, seed=s)
        _, capacity = trace_s.rate_timeseries(bin_size=bin_size)
        capacities.append(capacity)
        ref = pinned_ref if pinned_ref is not None else register_trace(trace_s)
        # fig1's legacy `seed` is a trace seed; single-seed runs keep the
        # legacy per-cell seed 0 (fig5/10/12/17 differ: there the legacy
        # seed feeds the simulation itself, so it passes through).
        cell_seed = s if multi else 0
        sweep_jobs += [SweepJob(func=timeseries_cell,
                                kwargs=dict(scheme=sch, link_spec=ref, rtt=rtt,
                                            duration=duration,
                                            buffer_packets=buffer_packets,
                                            bin_size=bin_size, seed=cell_seed),
                                label=f"fig1/seed{s}/{sch}")
                       for sch in schemes]
    groups = split_by_seed(executor.run(sweep_jobs), len(seed_list))

    out: Dict[str, TimeSeries] = {}
    for j, scheme in enumerate(schemes):
        per_seed = groups[j]
        if multi:
            out[scheme] = _combine_seed_series(scheme, per_seed, capacities,
                                               seed_list)
        else:
            series = per_seed[0]
            n = min(len(series.times), len(capacities[0]))
            series.capacity_bps = capacities[0][:n]
            out[scheme] = series
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

    The square-wave link is deterministic, so the seed axis only reseeds the
    per-cell simulation; multi-seed runs still return mean curves with
    ``seed_stats`` attached, for API uniformity with :func:`fig1_timeseries`.
    """
    seeds = resolve_seeds(seeds)
    seed_list = (0,) if seeds is None else seeds
    multi = len(seed_list) > 1
    sweep_jobs = [SweepJob(func=timeseries_cell,
                           kwargs=dict(scheme=sch,
                                       link_spec=SquareWaveRate(
                                           low_mbps * 1e6, high_mbps * 1e6,
                                           half_period),
                                       rtt=rtt, duration=duration,
                                       bin_size=bin_size, seed=s),
                           label=f"fig17/seed{s}/{sch}")
                  for s in seed_list for sch in schemes]
    results = get_executor(executor, jobs=jobs, cache_dir=cache_dir).run(sweep_jobs)
    if not multi:
        return dict(zip(schemes, results))
    groups = split_by_seed(results, len(seed_list))
    return {scheme: _combine_seed_series(scheme, groups[j],
                                         [None] * len(seed_list), seed_list)
            for j, scheme in enumerate(schemes)}


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
