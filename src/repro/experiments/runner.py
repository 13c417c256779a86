"""Shared experiment machinery: the single-bottleneck cell and the grid runner.

:func:`single_bottleneck_spec` describes the standard one-flow-one-bottleneck
cellular experiment (§6.2: 100 ms minimum RTT, 250-packet buffer) for one
scheme label, and :func:`single_bottleneck_summary` (the
``single_bottleneck`` summary) runs and measures it.  To read a flow's own
stats, build the spec, call the summary and read ``built.flows``.

:func:`run_seed_grid` is the one grid runner.  Every figure but Fig. 4's
probe, :func:`run_cellular_sweep` and a ``metro_pack`` city list one seed's
cells; it runs them per seed (``seeds=``, else ``REPRO_SEEDS``) through one
:class:`~repro.runtime.executor.SweepExecutor` (serial, a worker pool or the
result cache, bit-identical either way) and writes one ``figure`` manifest.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.analysis.stats import (SeedResultSet, aggregate_values,
                                  split_by_seed)
from repro.cellular.trace import CellularTrace
from repro.config import resolve_seeds
from repro.core.params import ABCParams
from repro.experiments.scenario_spec import (BuiltScenario, FlowSpec,
                                             ScenarioSpec, link_spec_from,
                                             spec_cell)
from repro.obs.manifest import build_manifest, run_dir, write_manifest
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepCell, SweepJob, SweepSpec

#: Scheme labels in the order the paper's tables list them.
SCHEME_NAMES: Tuple[str, ...] = (
    "abc", "xcp", "xcpw", "cubic+codel", "cubic+pie", "copa", "sprout",
    "vegas", "verus", "bbr", "pcc", "cubic", "rcp", "vcp",
)

#: Subset of schemes that are explicit-feedback protocols (Fig. 16).
EXPLICIT_SCHEMES: Tuple[str, ...] = ("abc", "xcp", "xcpw", "rcp", "vcp")


@dataclass
class SingleBottleneckResult:
    """Summary of one scheme on one bottleneck."""

    scheme: str
    trace: str
    throughput_bps: float
    utilization: float
    delay_p95_ms: float
    delay_mean_ms: float
    queuing_p95_ms: float
    queuing_mean_ms: float
    drops: int
    extra: dict = field(default_factory=dict)


def single_bottleneck_spec(scheme: str, link_spec: Any, rtt: float = 0.1,
                           duration: float = 30.0,
                           buffer_packets: int = 250,
                           abc_params: Optional[ABCParams] = None,
                           extra_links: Sequence[Any] = (),
                           seed: int = 0) -> ScenarioSpec:
    """One backlogged flow of ``scheme`` over one (or more) bottleneck links.

    ``link_spec`` is any value
    :func:`~repro.experiments.scenario_spec.link_spec_from` converts.
    ``extra_links`` adds further bottlenecks in sequence on the data path
    (each gets its own instance of the scheme's qdisc), which is how the
    two-bottleneck uplink+downlink experiment of Fig. 8c is built.
    """
    name = scheme.lower()
    links = [link_spec_from(link, buffer_packets=buffer_packets,
                            name=f"bottleneck-{index}" if index else "bottleneck")
             for index, link in enumerate((link_spec, *extra_links))]
    return ScenarioSpec(scheme=name, duration=duration, links=links,
                        flows=[FlowSpec(rtt=rtt, label=name)], sim_seed=seed,
                        abc_params=abc_params)


def single_bottleneck_summary(built: BuiltScenario,
                              warmup: float = 0.0) -> SingleBottleneckResult:
    """Run a :func:`single_bottleneck_spec` scenario and measure its flow
    from ``warmup`` on (the ``single_bottleneck`` summary)."""
    scenario, flow = built.scenario, built.flows[0]
    result = scenario.run(built.spec.duration)
    stats = flow.stats
    # A multi-hop path is as utilised as its least utilised hop.
    per_link_utilization = [result.link_utilization(link, t0=warmup)
                            for link in scenario.links]
    return SingleBottleneckResult(
        scheme=built.spec.scheme,
        trace=built.spec.links[0].display_name(),
        throughput_bps=result.flow_throughput_bps(flow, t0=warmup),
        utilization=min(per_link_utilization),
        delay_p95_ms=stats.delay_percentile(95) * 1000.0,
        delay_mean_ms=stats.mean_delay() * 1000.0,
        queuing_p95_ms=stats.delay_percentile(95, kind="queuing") * 1000.0,
        queuing_mean_ms=stats.mean_delay(kind="queuing") * 1000.0,
        drops=result.link_drops(scenario.links[0]),
        extra={"per_link_utilization": per_link_utilization},
    )


def run_seed_grid(jobs_for_seed: Callable[[int], Sequence[SweepJob]],
                  default_seed: int,
                  seeds: Optional[Sequence[int]] = None,
                  executor: Optional[SweepExecutor] = None,
                  combine: Callable[..., Any] = SeedResultSet) -> List[Any]:
    """The one grid runner: one value per grid cell, in grid order.

    ``jobs_for_seed(s)`` lists one seed's cells.  The seed list is ``seeds``,
    else ``REPRO_SEEDS``, else ``(default_seed,)``; every seed's jobs go
    seed-major through one executor (``executor``, else ``SweepExecutor()``,
    which reads the ``REPRO_*`` environment).  With one seed each value is
    the cell's own result object; with several it is
    ``combine(seeds, per_seed)``.
    ``jobs_for_seed`` sees the seed and nothing else, so seed ``s`` runs the
    same jobs — same cache keys, same results — however many other seeds
    ride along.  A grid without a seed axis pins ``seeds`` (e.g. ``(0,)``),
    which also leaves ``REPRO_SEEDS`` out of it.

    When ``REPRO_RUN_DIR`` is set, one ``figure`` manifest per call records
    the seed list, the job labels, each :func:`spec_cell` job's kwargs (its
    spec, summary and summary arguments: enough to replay the cell) and the
    executor's run.
    """
    seeds = resolve_seeds(seeds) or (default_seed,)
    if executor is None:
        executor = SweepExecutor()
    sweep_jobs = [job for s in seeds for job in jobs_for_seed(s)]
    results = executor.run(sweep_jobs)
    directory = run_dir()
    if directory is not None:
        write_manifest(build_manifest(
            "figure", spec={
                "seeds": list(seeds),
                "jobs": [job.label for job in sweep_jobs],
                "cells": [job.kwargs if job.func is spec_cell else None
                          for job in sweep_jobs]},
            executor=executor), directory)
    if len(seeds) == 1:
        return results
    return [combine(seeds, per_seed)
            for per_seed in split_by_seed(results, len(seeds))]


def run_spec_grid(spec_for_seed: Callable[[int], SweepSpec],
                  default_seed: int,
                  seeds: Optional[Sequence[int]] = None,
                  executor: Optional[SweepExecutor] = None
                  ) -> Dict[str, Dict[str, Any]]:
    """:func:`run_seed_grid` over one :class:`SweepSpec` per seed, grouped
    as ``results[scheme][trace]`` (the Fig. 9 / 15 / 16 shape).

    ``spec_for_seed(s)`` is seed ``s``'s scheme × trace grid; its jobs are
    labelled ``seed{s}/{scheme}/{trace}``.
    """
    grid: List[SweepCell] = []

    def jobs_for_seed(s: int) -> List[SweepJob]:
        grid[:], sweep_jobs = spec_for_seed(s).expand()
        for cell, job in zip(grid, sweep_jobs):
            job.label = f"seed{s}/{cell.scheme}/{cell.trace}"
        return sweep_jobs

    values = run_seed_grid(jobs_for_seed, default_seed, seeds, executor)
    out: Dict[str, Dict[str, Any]] = {}
    for cell, value in zip(grid, values):
        out.setdefault(cell.scheme, {})[cell.trace] = value
    return out


def run_cellular_sweep(schemes: Sequence[str],
                       traces: Mapping[str, CellularTrace],
                       rtt: float = 0.1, duration: float = 30.0,
                       buffer_packets: int = 250,
                       abc_params: Optional[ABCParams] = None,
                       executor: Optional[SweepExecutor] = None,
                       seeds: Optional[Sequence[int]] = None
                       ) -> Dict[str, Dict[str, SingleBottleneckResult]]:
    """Run every scheme over every trace (the Fig. 9 / 15 / 16 sweep).

    Returns ``results[scheme][trace_name]``.  The grid executes through a
    :class:`~repro.runtime.executor.SweepExecutor` — pass one explicitly, or
    let the ``REPRO_JOBS``/``REPRO_CACHE_DIR`` environment variables build
    one.  Raises :class:`ValueError` up front for an unknown scheme label or
    an empty scheme/trace set.

    ``seeds`` (argument, else the ``REPRO_SEEDS`` environment variable) adds
    the statistical seed axis; the traces are the caller's, so a seed is the
    per-cell simulation seed.  With a single seed the result values are
    plain :class:`SingleBottleneckResult` objects (the default seed is 0).
    With several seeds every cell runs once per seed and each value is a
    :class:`~repro.analysis.stats.SeedResultSet` whose metric attributes are
    across-seed means (full aggregates under ``.stats``).
    """
    spec = SweepSpec(schemes=list(schemes), traces=dict(traces), rtt=rtt,
                     duration=duration, buffer_packets=buffer_packets,
                     abc_params=abc_params)
    return run_spec_grid(lambda s: replace(spec, seeds=(s,)), 0, seeds,
                         executor)


#: Metrics averaged across traces by :func:`sweep_averages`, in row order.
AVERAGE_METRICS: Tuple[str, ...] = ("utilization", "delay_p95_ms",
                                    "delay_mean_ms", "queuing_p95_ms",
                                    "throughput_bps")


def sweep_averages(results: Mapping[str, Mapping[str, SingleBottleneckResult]]
                   ) -> List[dict]:
    """Average utilisation/delay per scheme across traces (Fig. 9's bars).

    Accepts both single-seed sweeps (values are
    :class:`SingleBottleneckResult`) and multi-seed sweeps from
    ``run_cellular_sweep(..., seeds=[...])`` (values are
    :class:`~repro.analysis.stats.SeedResultSet`).  For a multi-seed sweep
    each metric column holds the across-seed mean of the cross-trace average
    and gains ``<metric>_ci95``/``<metric>_stdev`` companions (95 %
    Student-t confidence half-width over seeds) plus an ``n_seeds`` column.

    Raises :class:`ValueError` when ``results`` is empty or any scheme has an
    empty trace set, instead of silently producing a partial table.
    """
    if not results:
        raise ValueError("sweep_averages needs a non-empty results mapping")
    rows = []
    for scheme, per_trace in results.items():
        values = list(per_trace.values())
        if not values:
            raise ValueError(f"scheme {scheme!r} has an empty trace set; "
                             "every scheme needs at least one trace result")
        n = len(values)
        row: Dict[str, Any] = {"scheme": scheme}
        multi_seed = (all(isinstance(v, SeedResultSet) for v in values)
                      and len({v.seeds for v in values}) == 1
                      and len(values[0].seeds) > 1)
        if multi_seed:
            seeds = values[0].seeds
            row["n_seeds"] = len(seeds)
            for metric in AVERAGE_METRICS:
                per_seed_avgs = [
                    sum(getattr(v.per_seed[i], metric) for v in values) / n
                    for i in range(len(seeds))]
                agg = aggregate_values(per_seed_avgs)
                row[metric] = agg.mean
                row[f"{metric}_ci95"] = agg.ci95
                row[f"{metric}_stdev"] = agg.stdev
        else:
            for metric in AVERAGE_METRICS:
                row[metric] = sum(getattr(v, metric) for v in values) / n
        rows.append(row)
    return rows


def normalized_table(rows: Sequence[Mapping], reference: str = "abc") -> List[dict]:
    """The §1 summary table: throughput and p95 delay normalised to ABC."""
    by_scheme = {row["scheme"]: row for row in rows}
    if reference not in by_scheme:
        raise KeyError(f"reference scheme {reference!r} not in rows")
    ref = by_scheme[reference]
    table = []
    for row in rows:
        table.append({
            "scheme": row["scheme"],
            "norm_throughput": (row["utilization"] / ref["utilization"]
                                if ref["utilization"] else 0.0),
            "norm_delay_p95": (row["delay_p95_ms"] / ref["delay_p95_ms"]
                               if ref["delay_p95_ms"] else 0.0),
        })
    return table
