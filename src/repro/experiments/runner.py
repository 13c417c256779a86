"""Shared experiment machinery: scheme registry and single-bottleneck runs.

A *scheme* in the paper's sense is a sender-side congestion controller plus
the queueing discipline running at the bottleneck (Cubic runs over a deep
drop-tail buffer, "Cubic+Codel" runs over CoDel, ABC and the explicit schemes
bring their own router).  :func:`make_scheme` builds both halves from the
scheme label used in the figures, and :func:`run_single_bottleneck` runs the
standard one-flow-one-bottleneck cellular experiment (§6.2: 100 ms minimum
RTT, 250-packet buffer).

Sweeps (:func:`run_cellular_sweep`) route through
:class:`repro.runtime.SweepExecutor`: every (scheme, trace, seed) cell is an
independent job that can run serially, on a ``multiprocessing`` pool
(``REPRO_JOBS`` or the ``jobs=`` argument), or be replayed from the on-disk
result cache (``REPRO_CACHE_DIR`` or ``cache_dir=``) with bit-identical
metrics.  Passing ``seeds=[...]`` (or setting ``REPRO_SEEDS``) adds the
statistical seed axis: each cell runs once per seed and the sweep returns
:class:`~repro.analysis.stats.SeedResultSet` aggregates whose metric
attributes are across-seed means with 95 % confidence intervals attached.
:func:`run_seed_grid` is the one grid runner — that axis for every figure
entry point, ``run_cellular_sweep`` and a ``metro_pack`` city alike: a
caller lists one seed's jobs and shapes the per-cell values it gets back.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple, Union)

from repro.analysis.stats import (SeedResultSet, aggregate_values,
                                  split_by_seed)
from repro.aqm import CoDelQdisc, DropTailQdisc, PIEQdisc
from repro.cc import make_cc
from repro.cc.base import CongestionControl
from repro.cellular.trace import CellularTrace
from repro.config import resolve_seeds
from repro.core.params import ABCParams, CELLULAR_DEFAULTS
from repro.core.pk_abc import PKABCRouterQdisc
from repro.core.router import ABCRouterQdisc
from repro.explicit import (RCPRouterQdisc, VCPRouterQdisc, XCPRouterQdisc)
from repro.obs.manifest import build_manifest, run_dir, write_manifest
from repro.runtime.executor import SweepExecutor, SweepJob, get_executor
from repro.runtime.spec import SweepCell, SweepSpec
from repro.simulator.link import CapacityModel
from repro.simulator.qdisc import Qdisc
from repro.simulator.scenario import Scenario

#: Scheme labels in the order the paper's tables list them.
SCHEME_NAMES: Tuple[str, ...] = (
    "abc", "xcp", "xcpw", "cubic+codel", "cubic+pie", "copa", "sprout",
    "vegas", "verus", "bbr", "pcc", "cubic", "rcp", "vcp",
)

#: Subset of schemes that are explicit-feedback protocols (Fig. 16).
EXPLICIT_SCHEMES: Tuple[str, ...] = ("abc", "xcp", "xcpw", "rcp", "vcp")


@dataclass
class SchemeSpec:
    """A sender factory plus a bottleneck-qdisc factory."""

    name: str
    make_sender: Callable[[], CongestionControl]
    make_qdisc: Callable[[int], Qdisc]


def _scheme_table(params: ABCParams, seed: int = 0
                  ) -> Dict[str, Tuple[Callable[[], CongestionControl],
                                       Callable[[int], Qdisc]]]:
    """The label → (sender factory, qdisc factory) dispatch table.

    Single source of truth for scheme wiring: :func:`make_scheme` dispatches
    through it and :func:`known_scheme_names` derives the valid labels from
    its keys, so the two can never drift apart.
    """
    return {
        "abc": (lambda: make_cc("abc", params=params),
                lambda b: ABCRouterQdisc(params=params, buffer_packets=b)),
        "pk-abc": (lambda: make_cc("abc", params=params),
                   lambda b: PKABCRouterQdisc(params=params, buffer_packets=b)),
        "abc-enqueue": (lambda: make_cc("abc", params=params),
                        lambda b: ABCRouterQdisc(params=params, buffer_packets=b,
                                                 feedback_basis="enqueue")),
        "cubic": (lambda: make_cc("cubic"),
                  lambda b: DropTailQdisc(buffer_packets=b)),
        "cubic+codel": (lambda: make_cc("cubic"),
                        lambda b: CoDelQdisc(buffer_packets=b)),
        "cubic+pie": (lambda: make_cc("cubic"),
                      lambda b: PIEQdisc(buffer_packets=b, seed=seed)),
        "newreno": (lambda: make_cc("newreno"),
                    lambda b: DropTailQdisc(buffer_packets=b)),
        "vegas": (lambda: make_cc("vegas"),
                  lambda b: DropTailQdisc(buffer_packets=b)),
        "copa": (lambda: make_cc("copa"),
                 lambda b: DropTailQdisc(buffer_packets=b)),
        "bbr": (lambda: make_cc("bbr"),
                lambda b: DropTailQdisc(buffer_packets=b)),
        "pcc": (lambda: make_cc("pcc"),
                lambda b: DropTailQdisc(buffer_packets=b)),
        "sprout": (lambda: make_cc("sprout"),
                   lambda b: DropTailQdisc(buffer_packets=b)),
        "verus": (lambda: make_cc("verus"),
                  lambda b: DropTailQdisc(buffer_packets=b)),
        "xcp": (lambda: make_cc("xcp"),
                lambda b: XCPRouterQdisc(buffer_packets=b)),
        "xcpw": (lambda: make_cc("xcp"),
                 lambda b: XCPRouterQdisc(buffer_packets=b, wireless=True)),
        "rcp": (lambda: make_cc("rcp"),
                lambda b: RCPRouterQdisc(buffer_packets=b)),
        "vcp": (lambda: make_cc("vcp"),
                lambda b: VCPRouterQdisc(buffer_packets=b)),
    }


def known_scheme_names() -> frozenset:
    """The set of scheme labels :func:`make_scheme` can build."""
    return frozenset(_scheme_table(CELLULAR_DEFAULTS))


def make_scheme(name: str, buffer_packets: int = 250,
                abc_params: Optional[ABCParams] = None,
                seed: int = 0) -> SchemeSpec:
    """Build the sender+qdisc pair for a paper scheme label."""
    key = name.lower()
    params = abc_params if abc_params is not None else CELLULAR_DEFAULTS
    table = _scheme_table(params, seed=seed)
    if key not in table:
        raise KeyError(f"unknown scheme {name!r}; available: {sorted(table)}")
    sender_factory, qdisc_factory = table[key]
    return SchemeSpec(name=key, make_sender=sender_factory,
                      make_qdisc=lambda b=buffer_packets: qdisc_factory(b))


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


LinkSpec = Union[CellularTrace, float, CapacityModel]


def _add_bottleneck(scenario: Scenario, link_spec: LinkSpec, qdisc: Qdisc,
                    name: str):
    if isinstance(link_spec, CellularTrace):
        return scenario.add_cellular_link(link_spec, qdisc=qdisc, name=name)
    return scenario.add_rate_link(link_spec, qdisc=qdisc, name=name)


def run_single_bottleneck(scheme: str, link_spec: LinkSpec,
                          rtt: float = 0.1, duration: float = 30.0,
                          buffer_packets: int = 250,
                          abc_params: Optional[ABCParams] = None,
                          warmup: float = 0.0,
                          extra_links: Sequence[LinkSpec] = (),
                          seed: int = 0) -> SingleBottleneckResult:
    """One backlogged flow of ``scheme`` over one (or more) bottleneck links.

    ``extra_links`` adds further bottlenecks in sequence on the data path
    (each gets its own instance of the scheme's qdisc), which is how the
    two-bottleneck uplink+downlink experiment of Fig. 8c is built.
    """
    spec = make_scheme(scheme, buffer_packets=buffer_packets,
                       abc_params=abc_params, seed=seed)
    scenario = Scenario()
    links = [_add_bottleneck(scenario, link_spec, spec.make_qdisc(buffer_packets),
                             name="bottleneck")]
    for index, extra in enumerate(extra_links):
        links.append(_add_bottleneck(scenario, extra,
                                     spec.make_qdisc(buffer_packets),
                                     name=f"bottleneck-{index + 1}"))
    flow = scenario.add_flow(spec.make_sender(), links, rtt=rtt,
                             label=spec.name)
    result = scenario.run(duration)

    trace_name = link_spec.name if isinstance(link_spec, CellularTrace) else str(link_spec)
    stats = flow.stats
    # The flow's utilisation is measured against the *last* bottleneck it
    # traverses when there are several (the paper reports end-to-end
    # utilisation of the constrained path); with a single link this is just
    # that link.
    per_link_utilization = [result.link_utilization(link, t0=warmup)
                            for link in links]
    min_util = min(per_link_utilization)
    return SingleBottleneckResult(
        scheme=spec.name,
        trace=trace_name,
        throughput_bps=result.flow_throughput_bps(flow, t0=warmup),
        utilization=min_util,
        delay_p95_ms=stats.delay_percentile(95) * 1000.0,
        delay_mean_ms=stats.mean_delay() * 1000.0,
        queuing_p95_ms=stats.delay_percentile(95, kind="queuing") * 1000.0,
        queuing_mean_ms=stats.mean_delay(kind="queuing") * 1000.0,
        drops=result.link_drops(links[0]),
        extra={"flow": flow, "scenario": scenario, "links": links,
               "per_link_utilization": per_link_utilization},
    )


def run_seed_grid(jobs_for_seed: Callable[[int], Sequence[SweepJob]],
                  default_seed: int,
                  seeds: Optional[Sequence[int]] = None,
                  executor: Optional[SweepExecutor] = None,
                  jobs: Optional[int] = None,
                  cache_dir: Optional[str] = None,
                  combine: Callable[..., Any] = SeedResultSet) -> List[Any]:
    """The one grid runner: one value per grid cell, in grid order.

    ``jobs_for_seed(s)`` lists one seed's cells.  The seed list is ``seeds``,
    else ``REPRO_SEEDS``, else ``(default_seed,)``; every seed's jobs go
    seed-major through one executor (``executor``, or one built from
    ``jobs``/``cache_dir``).  With one seed each value is the cell's own
    result object; with several it is ``combine(seeds, per_seed)``.
    ``jobs_for_seed`` sees the seed and nothing else, so seed ``s`` runs the
    same jobs — same cache keys, same results — however many other seeds
    ride along.  A grid without a seed axis pins ``seeds`` (e.g. ``(0,)``),
    which also leaves ``REPRO_SEEDS`` out of it.

    When ``REPRO_RUN_DIR`` is set, one ``figure`` manifest per call records
    the seed list, the job labels and the executor's run.
    """
    seeds = resolve_seeds(seeds) or (default_seed,)
    executor = get_executor(executor, jobs=jobs, cache_dir=cache_dir)
    sweep_jobs = [job for s in seeds for job in jobs_for_seed(s)]
    results = executor.run(sweep_jobs)
    directory = run_dir()
    if directory is not None:
        write_manifest(build_manifest(
            "figure", spec={"seeds": list(seeds),
                            "jobs": [job.label for job in sweep_jobs]},
            executor=executor), directory)
    if len(seeds) == 1:
        return results
    return [combine(seeds, per_seed)
            for per_seed in split_by_seed(results, len(seeds))]


def run_spec_grid(spec_for_seed: Callable[[int], SweepSpec],
                  default_seed: int,
                  seeds: Optional[Sequence[int]] = None,
                  executor: Optional[SweepExecutor] = None,
                  jobs: Optional[int] = None,
                  cache_dir: Optional[str] = None
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

    values = run_seed_grid(jobs_for_seed, default_seed, seeds, executor, jobs,
                           cache_dir)
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
                       jobs: Optional[int] = None,
                       cache_dir: Optional[str] = None,
                       seeds: Optional[Sequence[int]] = None
                       ) -> Dict[str, Dict[str, SingleBottleneckResult]]:
    """Run every scheme over every trace (the Fig. 9 / 15 / 16 sweep).

    Returns ``results[scheme][trace_name]``.  The grid executes through a
    :class:`~repro.runtime.SweepExecutor` — pass one explicitly, or let
    ``jobs``/``cache_dir`` (and the ``REPRO_JOBS``/``REPRO_CACHE_DIR``
    environment variables) build one.  Raises :class:`ValueError` up front
    for an unknown scheme label or an empty scheme/trace set.

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
                         executor, jobs, cache_dir)


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
