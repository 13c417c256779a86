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
environment variable).  With several seeds the synthetic traces are
regenerated per seed and every metric is reported as an across-seed
aggregate (mean, with the 95 % confidence interval available through the
returned :class:`~repro.analysis.stats.SeedResultSet`\\ s); with a single or
default seed the output is bit-for-bit the legacy point estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.metrics import is_outside_frontier, pareto_frontier
from repro.analysis.stats import SeedAggregate, SeedResultSet, split_by_seed
from repro.cellular.synthetic import synthetic_trace_set, uplink_downlink_pair
from repro.cellular.trace import CellularTrace
from repro.config import resolve_seeds
from repro.experiments.runner import (EXPLICIT_SCHEMES, SCHEME_NAMES,
                                      SingleBottleneckResult,
                                      group_seed_results, normalized_table,
                                      run_cellular_sweep, sweep_averages)
from repro.runtime.executor import SweepExecutor, SweepJob, get_executor
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
    scatter = ParetoScatter(label=label)
    for scheme, res in results.items():
        scatter.points.append(ParetoPoint(
            scheme=scheme,
            delay_p95_ms=res.delay_p95_ms,
            utilization=res.utilization,
            throughput_mbps=res.throughput_bps / 1e6,
        ))
    return scatter


def _fig8_panel_links(duration: float, seed: int) -> Tuple[tuple, ...]:
    """The three Fig. 8 panels for one seed, traces as store refs."""
    uplink, downlink = uplink_downlink_pair(duration=duration, seed=seed)
    up_ref, down_ref = register_trace(uplink), register_trace(downlink)
    return (("downlink", down_ref, ()),
            ("uplink", up_ref, ()),
            ("uplink+downlink", up_ref, (down_ref,)))


def fig8_pareto(schemes: Sequence[str] = DEFAULT_SCHEMES,
                duration: float = 30.0, rtt: float = 0.1, seed: int = 11,
                executor: Optional[SweepExecutor] = None,
                jobs: Optional[int] = None,
                cache_dir: Optional[str] = None,
                seeds: Optional[Sequence[int]] = None
                ) -> Dict[str, ParetoScatter]:
    """Reproduce Fig. 8: downlink, uplink and uplink+downlink scatters.

    With multiple ``seeds`` (argument or ``REPRO_SEEDS``) the uplink/downlink
    trace pair is regenerated per seed; every scatter point is the
    across-seed mean and ``panel.point_stats`` carries the per-metric
    aggregates.  With a single seed ``s`` the output matches the legacy
    ``seed=s`` run.
    """
    schemes = list(schemes)
    validate_schemes(schemes)
    executor = get_executor(executor, jobs=jobs, cache_dir=cache_dir)
    seeds = resolve_seeds(seeds)
    seed_list = (seed,) if seeds is None else seeds

    sweep_jobs = []
    panel_labels: List[str] = []
    for s in seed_list:
        panel_links = _fig8_panel_links(duration, s)
        if not panel_labels:
            panel_labels = [label for label, _, _ in panel_links]
        # fig8's legacy `seed` only drives trace generation; the per-cell
        # simulation seed stays at the legacy 0 unless the seed axis is real.
        cell_seed = 0 if seeds is None or len(seeds) == 1 else s
        sweep_jobs += [SweepJob(func=sweep_cell,
                                kwargs=dict(scheme=str(sch).lower(),
                                            link_spec=link, rtt=rtt,
                                            duration=duration,
                                            extra_links=extras,
                                            seed=cell_seed),
                                label=f"seed{s}/{label}/{sch}")
                       for label, link, extras in panel_links
                       for sch in schemes]
    groups = split_by_seed(executor.run(sweep_jobs), len(seed_list))

    panels: Dict[str, ParetoScatter] = {}
    for p, label in enumerate(panel_labels):
        cells = {s: groups[p * len(schemes) + i]
                 for i, s in enumerate(schemes)}
        if len(seed_list) == 1:
            panels[label] = _scatter_from_results(
                label, {s: cells[s][0] for s in schemes})
        else:
            sets = {s: SeedResultSet(seed_list, cells[s]) for s in schemes}
            scatter = _scatter_from_results(label, sets)
            scatter.point_stats = {s: sets[s].stats for s in schemes}
            panels[label] = scatter
    return panels


def fig9_sweep(schemes: Sequence[str] = DEFAULT_SCHEMES,
               duration: float = 30.0, rtt: float = 0.1, seed: int = 1,
               traces: Optional[Mapping[str, CellularTrace]] = None,
               executor: Optional[SweepExecutor] = None,
               jobs: Optional[int] = None, cache_dir: Optional[str] = None,
               seeds: Optional[Sequence[int]] = None,
               trace_names: Optional[Sequence[str]] = None
               ) -> Dict[str, Dict[str, SingleBottleneckResult]]:
    """Reproduce Fig. 9 / Fig. 15: every scheme over the eight-trace set.

    With multiple ``seeds`` (argument or ``REPRO_SEEDS``) the synthetic
    trace set is regenerated per seed (unless ``traces`` is given, which
    pins it) and each (scheme, trace-name) value becomes a
    :class:`~repro.analysis.stats.SeedResultSet`; :func:`sweep_averages`
    then reports mean ± 95 % CI per scheme.  ``seeds=[s]`` is bit-for-bit
    identical to the legacy ``seed=s`` run (the trace set comes from ``s``,
    the per-cell simulation keeps the legacy seed 0), matching the
    single-seed semantics of :func:`fig8_pareto`/:func:`fig18_rtt_sensitivity`.

    ``trace_names`` restricts the synthetic set to a subset of the trace
    library while keeping per-seed regeneration (use it instead of
    ``traces=`` for multi-seed subset sweeps such as Figs. 15/16).
    """
    seeds = resolve_seeds(seeds)
    executor = get_executor(executor, jobs=jobs, cache_dir=cache_dir)

    def _trace_set(s: int) -> Mapping[str, CellularTrace]:
        if traces is not None:
            return traces
        return synthetic_trace_set(duration=duration, seed=s,
                                   names=(list(trace_names)
                                          if trace_names is not None else None))

    if seeds is None or len(seeds) == 1:
        # Explicit seeds=(0,) pins the per-cell seed to the legacy default
        # (and keeps run_cellular_sweep from re-reading REPRO_SEEDS).
        return run_cellular_sweep(schemes,
                                  _trace_set(seed if seeds is None else seeds[0]),
                                  rtt=rtt, duration=duration,
                                  executor=executor, seeds=(0,))
    all_cells: List[Any] = []
    sweep_jobs: List[SweepJob] = []
    for s in seeds:
        spec = SweepSpec(schemes=list(schemes), traces=dict(_trace_set(s)),
                         rtt=rtt, duration=duration, seeds=(s,))
        cells, jobs_for_seed = spec.expand()
        all_cells += cells
        sweep_jobs += jobs_for_seed
    pairs = list(zip(all_cells, executor.run(sweep_jobs)))
    return group_seed_results(pairs, seeds)


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

    With multiple ``seeds`` (argument or ``REPRO_SEEDS``) the trace is
    regenerated per seed (unless pinned via ``trace=``) and every
    ``out[rtt][scheme]`` value becomes a
    :class:`~repro.analysis.stats.SeedResultSet` of across-seed aggregates.
    """
    schemes = list(schemes)
    validate_schemes(schemes)
    executor = get_executor(executor, jobs=jobs, cache_dir=cache_dir)
    seeds = resolve_seeds(seeds)
    seed_list = (seed,) if seeds is None else seeds

    pinned_ref = register_trace(trace) if trace is not None else None

    def _trace_ref(s: int):
        if pinned_ref is not None:
            return pinned_ref
        generated = synthetic_trace_set(duration=duration, seed=s,
                                        names=["Verizon-LTE-1"])["Verizon-LTE-1"]
        return register_trace(generated)

    multi = len(seed_list) > 1
    sweep_jobs = []
    for s in seed_list:
        ref = _trace_ref(s)
        # As in fig8: the legacy seed is a trace seed, so single-seed runs
        # keep the legacy per-cell seed 0 (bit-identical output).
        cell_seed = s if multi else 0
        sweep_jobs += [SweepJob(func=sweep_cell,
                                kwargs=dict(scheme=str(sch).lower(),
                                            link_spec=ref, rtt=rtt,
                                            duration=duration,
                                            seed=cell_seed),
                                label=f"seed{s}/rtt{rtt:g}/{sch}")
                       for rtt in rtts for sch in schemes]
    groups = split_by_seed(executor.run(sweep_jobs), len(seed_list))

    out: Dict[float, Dict[str, SingleBottleneckResult]] = {}
    for i, rtt in enumerate(rtts):
        out[rtt] = {}
        for j, sch in enumerate(schemes):
            per_seed = groups[i * len(schemes) + j]
            out[rtt][sch] = (SeedResultSet(seed_list, per_seed) if multi
                             else per_seed[0])
    return out
