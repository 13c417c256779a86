"""Throughput/delay frontier experiments: Figs. 8, 9, 15, 16, 18 and Table 1.

These experiments all run one backlogged flow per scheme over trace-driven
cellular links and report utilisation against per-packet delay:

* Fig. 8 — scatter on a single downlink trace, a single uplink trace, and a
  two-bottleneck uplink+downlink path; the claim is that ABC sits outside the
  Pareto frontier of all prior schemes.
* Fig. 9 / Fig. 15 — utilisation, 95th-percentile delay and mean delay
  averaged across eight operator traces.
* Fig. 16 — the same sweep restricted to explicit schemes (XCP, XCPw, RCP,
  VCP).
* Fig. 18 — sensitivity to the propagation RTT (20/50/100/200 ms).
* Table 1 (§1) — throughput and delay normalised to ABC.

Every sweep here fans out through :class:`repro.runtime.SweepExecutor`; pass
``executor=`` (or ``jobs=``/``cache_dir=``) to parallelise or memoize the
grid, or set ``REPRO_JOBS``/``REPRO_CACHE_DIR`` in the environment.

Each entry point also takes ``seeds=`` (default: the ``REPRO_SEEDS``
environment variable), the seed axis of
:func:`~repro.experiments.runner.run_seed_grid`.  Here a seed regenerates the
synthetic traces; the per-cell simulation seed is 0 for every seed, so seed
``s`` of a multi-seed run is the single-seed ``seed=s`` run.  With several
seeds every value is a :class:`~repro.analysis.stats.SeedResultSet`
(across-seed mean, 95 % confidence interval under ``.stats``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import is_outside_frontier, pareto_frontier
from repro.analysis.stats import SeedAggregate, SeedResultSet
from repro.cellular.synthetic import synthetic_trace_set, uplink_downlink_pair
from repro.cellular.trace import CellularTrace
from repro.experiments.runner import (EXPLICIT_SCHEMES, SCHEME_NAMES,
                                      SingleBottleneckResult,
                                      normalized_table, run_seed_grid,
                                      run_spec_grid, sweep_averages)
from repro.runtime.executor import SweepExecutor, SweepJob
from repro.runtime.spec import SweepSpec, sweep_cell, validate_schemes
from repro.runtime.trace_store import register_trace

#: Scheme subset used by default for the heavier sweeps (everything).
DEFAULT_SCHEMES: Sequence[str] = SCHEME_NAMES


@dataclass
class ParetoPoint:
    scheme: str
    delay_p95_ms: float
    utilization: float
    throughput_mbps: float


@dataclass
class ParetoScatter:
    """One panel of Fig. 8.

    For a multi-seed run each point holds across-seed means and
    ``point_stats[scheme][metric]`` carries the full
    :class:`~repro.analysis.stats.SeedAggregate` (mean, stdev, 95 % CI,
    min/max) behind it; for single-seed runs ``point_stats`` is empty.
    """

    label: str
    points: List[ParetoPoint] = field(default_factory=list)
    point_stats: Dict[str, Dict[str, SeedAggregate]] = field(default_factory=dict)

    def frontier(self, exclude: str = "abc") -> List[tuple]:
        """Pareto frontier of every scheme except ``exclude``."""
        others = [(p.scheme, p.delay_p95_ms, p.utilization)
                  for p in self.points if p.scheme != exclude]
        return pareto_frontier(others)

    def abc_outside_frontier(self) -> bool:
        abc = next((p for p in self.points if p.scheme == "abc"), None)
        if abc is None:
            return False
        frontier = [(delay, util) for _, delay, util in self.frontier()]
        return is_outside_frontier((abc.delay_p95_ms, abc.utilization), frontier)


def _scatter_from_results(label: str,
                          results: Mapping[str, SingleBottleneckResult]
                          ) -> ParetoScatter:
    scatter = ParetoScatter(label=label, point_stats={
        scheme: res.stats for scheme, res in results.items()
        if isinstance(res, SeedResultSet)})
    for scheme, res in results.items():
        scatter.points.append(ParetoPoint(
            scheme=scheme,
            delay_p95_ms=res.delay_p95_ms,
            utilization=res.utilization,
            throughput_mbps=res.throughput_bps / 1e6,
        ))
    return scatter


#: The Fig. 8 panels, in grid order.
FIG8_PANELS: Tuple[str, ...] = ("downlink", "uplink", "uplink+downlink")


def _fig8_panel_links(duration: float, seed: int) -> Tuple[tuple, ...]:
    """One seed's ``(link, extra_links)`` per panel, traces as store refs."""
    uplink, downlink = uplink_downlink_pair(duration=duration, seed=seed)
    up_ref, down_ref = register_trace(uplink), register_trace(downlink)
    return ((down_ref, ()), (up_ref, ()), (up_ref, (down_ref,)))


def fig8_pareto(schemes: Sequence[str] = DEFAULT_SCHEMES,
                duration: float = 30.0, rtt: float = 0.1, seed: int = 11,
                executor: Optional[SweepExecutor] = None,
                jobs: Optional[int] = None,
                cache_dir: Optional[str] = None,
                seeds: Optional[Sequence[int]] = None
                ) -> Dict[str, ParetoScatter]:
    """Reproduce Fig. 8: downlink, uplink and uplink+downlink scatters.

    The seed regenerates the uplink/downlink trace pair.  With several
    ``seeds`` every scatter point is the across-seed mean and
    ``panel.point_stats`` carries the per-metric aggregates.
    """
    schemes = list(schemes)
    validate_schemes(schemes)

    def jobs_for_seed(s: int) -> List[SweepJob]:
        return [SweepJob(func=sweep_cell,
                         kwargs=dict(scheme=str(sch).lower(), link_spec=link,
                                     rtt=rtt, duration=duration,
                                     extra_links=extras, seed=0),
                         label=f"seed{s}/{label}/{sch}")
                for label, (link, extras) in zip(
                    FIG8_PANELS, _fig8_panel_links(duration, s))
                for sch in schemes]

    values = iter(run_seed_grid(jobs_for_seed, seed, seeds, executor, jobs,
                                cache_dir))
    return {label: _scatter_from_results(
                label, {sch: next(values) for sch in schemes})
            for label in FIG8_PANELS}


def fig9_sweep(schemes: Sequence[str] = DEFAULT_SCHEMES,
               duration: float = 30.0, rtt: float = 0.1, seed: int = 1,
               traces: Optional[Mapping[str, CellularTrace]] = None,
               executor: Optional[SweepExecutor] = None,
               jobs: Optional[int] = None, cache_dir: Optional[str] = None,
               seeds: Optional[Sequence[int]] = None,
               trace_names: Optional[Sequence[str]] = None
               ) -> Dict[str, Dict[str, SingleBottleneckResult]]:
    """Reproduce Fig. 9 / Fig. 15: every scheme over the eight-trace set.

    The seed regenerates the synthetic trace set; with several ``seeds``
    each (scheme, trace-name) value becomes a
    :class:`~repro.analysis.stats.SeedResultSet` and :func:`sweep_averages`
    reports mean ± 95 % CI per scheme.  ``traces=`` pins the set, which
    leaves the seed nothing to vary — for a seed axis over fixed traces use
    :func:`~repro.experiments.runner.run_cellular_sweep`; ``trace_names``
    restricts the synthetic set to a subset of the trace library while
    keeping per-seed regeneration (Figs. 15/16).
    """
    def spec_for_seed(s: int) -> SweepSpec:
        trace_set = traces if traces is not None else synthetic_trace_set(
            duration=duration, seed=s,
            names=list(trace_names) if trace_names is not None else None)
        return SweepSpec(schemes=list(schemes), traces=dict(trace_set),
                         rtt=rtt, duration=duration)

    return run_spec_grid(spec_for_seed, seed, seeds, executor, jobs,
                         cache_dir)


def fig16_explicit(duration: float = 30.0, rtt: float = 0.1, seed: int = 1,
                   traces: Optional[Mapping[str, CellularTrace]] = None,
                   executor: Optional[SweepExecutor] = None,
                   jobs: Optional[int] = None, cache_dir: Optional[str] = None,
                   seeds: Optional[Sequence[int]] = None,
                   trace_names: Optional[Sequence[str]] = None
                   ) -> Dict[str, Dict[str, SingleBottleneckResult]]:
    """Reproduce Fig. 16: ABC against the explicit-feedback schemes."""
    return fig9_sweep(schemes=EXPLICIT_SCHEMES, duration=duration, rtt=rtt,
                      seed=seed, traces=traces, executor=executor, jobs=jobs,
                      cache_dir=cache_dir, seeds=seeds,
                      trace_names=trace_names)


def table1_summary(sweep: Mapping[str, Mapping[str, SingleBottleneckResult]]
                   ) -> List[dict]:
    """The §1 summary table, normalised to ABC."""
    return normalized_table(sweep_averages(sweep), reference="abc")


def fig18_rtt_sensitivity(schemes: Sequence[str] = ("abc", "cubic+codel",
                                                    "cubic", "bbr", "copa",
                                                    "vegas", "sprout", "xcpw"),
                          rtts: Sequence[float] = (0.02, 0.05, 0.1, 0.2),
                          duration: float = 30.0, seed: int = 5,
                          trace: Optional[CellularTrace] = None,
                          executor: Optional[SweepExecutor] = None,
                          jobs: Optional[int] = None,
                          cache_dir: Optional[str] = None,
                          seeds: Optional[Sequence[int]] = None
                          ) -> Dict[float, Dict[str, SingleBottleneckResult]]:
    """Reproduce Fig. 18: the same trace at several propagation RTTs.

    The seed regenerates the trace (unless pinned via ``trace=``); with
    several ``seeds`` every ``out[rtt][scheme]`` value becomes a
    :class:`~repro.analysis.stats.SeedResultSet` of across-seed aggregates.
    """
    schemes = list(schemes)
    validate_schemes(schemes)

    def jobs_for_seed(s: int) -> List[SweepJob]:
        ref = register_trace(trace if trace is not None else
                             synthetic_trace_set(
                                 duration=duration, seed=s,
                                 names=["Verizon-LTE-1"])["Verizon-LTE-1"])
        return [SweepJob(func=sweep_cell,
                         kwargs=dict(scheme=str(sch).lower(), link_spec=ref,
                                     rtt=rtt, duration=duration, seed=0),
                         label=f"seed{s}/rtt{rtt:g}/{sch}")
                for rtt in rtts for sch in schemes]

    values = iter(run_seed_grid(jobs_for_seed, seed, seeds, executor, jobs,
                                cache_dir))
    return {rtt: {sch: next(values) for sch in schemes} for rtt in rtts}
