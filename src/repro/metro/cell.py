"""The per-cell metro job: one cellular bottleneck under mixed-flow churn.

:func:`metro_cell` is a module-level function with picklable kwargs and a
plain-dict return value, so it can serve as a
:class:`~repro.runtime.executor.SweepJob` target: multiprocessing workers
import it by name, and the content-addressed
:class:`~repro.runtime.cache.ResultCache` keys on its kwargs.

Each cell simulates one bottleneck (a trace-driven cellular link or a fixed
rate) carrying

* ``base_flows`` long-lived backlogged flows started at t=0, and
* a churning population of short flows — Poisson arrivals, bounded-Pareto
  sizes — that start mid-run and depart when their transfer completes,

with every flow's scheme drawn from the weighted mix label (e.g.
``"abc:0.6,cubic:0.3,bbr:0.1"``).  All randomness comes from the
deterministic per-(cell, seed) streams in :mod:`repro.metro.workload`.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.metro.aggregate import queuing_histogram
from repro.metro.workload import (bounded_pareto_sizes, parse_mix,
                                  poisson_arrivals, scheme_assignment)


def _make_cell_cc(scheme: str, params):
    """Instantiate one flow's congestion control for a shared-ABC-router cell."""
    from repro.cc import make_cc

    if scheme == "abc":
        return make_cc("abc", params=params)
    return make_cc(scheme)


def metro_cell(mix: str, cell: str, link_spec: Any, seed: int,
               rtt: float = 0.05, duration: float = 8.0,
               buffer_packets: int = 250, base_flows: int = 2,
               arrival_rate: float = 2.0, flow_size_min: int = 20_000,
               flow_size_max: int = 2_000_000, flow_size_alpha: float = 1.2,
               warmup: float = 0.0) -> Dict[str, Any]:
    """Simulate one metro cell; returns picklable per-cell metrics.

    ``link_spec`` is a :class:`~repro.cellular.trace.CellularTrace`, a
    :class:`~repro.runtime.trace_store.TraceRef` into the shared trace store,
    a rate in bits per second, or a picklable square-wave tuple
    ``("square", low_bps, high_bps, half_period_s)`` (the paper's Fig. 17
    cell model).  The bottleneck always runs the ABC router qdisc (non-ABC
    flows simply never receive accelerate marks, matching the paper's
    coexistence setup).
    """
    from repro.cellular.trace import CellularTrace
    from repro.core.params import ABCParams
    from repro.core.router import ABCRouterQdisc
    from repro.runtime.trace_store import resolve_link_spec
    from repro.simulator.link import SquareWaveRate
    from repro.simulator.scenario import Scenario
    from repro.simulator.traffic import FixedSizeSource

    link_spec = resolve_link_spec(link_spec)
    arrivals = poisson_arrivals(arrival_rate, duration, cell, seed)
    # Arrivals in the final RTT cannot complete a handshake-free transfer of
    # even one segment round-trip; keep them anyway (they contribute load),
    # but only pre-run arrivals exist at all.
    sizes = bounded_pareto_sizes(len(arrivals), cell, seed,
                                 min_bytes=flow_size_min,
                                 max_bytes=flow_size_max,
                                 alpha=flow_size_alpha)
    schemes = scheme_assignment(base_flows + len(arrivals), parse_mix(mix),
                                cell, seed)

    params = ABCParams()
    scenario = Scenario()
    qdisc = ABCRouterQdisc(params=params, buffer_packets=buffer_packets)
    if isinstance(link_spec, (int, float)):
        link = scenario.add_rate_link(float(link_spec), qdisc=qdisc,
                                      name=cell)
    elif isinstance(link_spec, tuple) and link_spec[:1] == ("square",):
        low, high, half_period = link_spec[1:]
        link = scenario.add_rate_link(
            SquareWaveRate(float(low), float(high), float(half_period)),
            qdisc=qdisc, name=cell)
    elif isinstance(link_spec, CellularTrace):
        link = scenario.add_cellular_link(link_spec, qdisc=qdisc, name=cell)
    else:
        link = scenario.add_cellular_link(list(link_spec), qdisc=qdisc,
                                          name=cell)

    base = []
    for index in range(base_flows):
        cc = _make_cell_cc(schemes[index], params)
        base.append(scenario.add_flow(cc, [link], rtt=rtt,
                                      label=f"base-{index}"))
    churn = []
    for index, (start, size) in enumerate(zip(arrivals, sizes)):
        cc = _make_cell_cc(schemes[base_flows + index], params)
        churn.append((start, scenario.add_flow(
            cc, [link], rtt=rtt, start_time=start,
            source=FixedSizeSource(size), label=f"churn-{index}")))

    result = scenario.run(duration)

    horizon = duration - warmup
    base_tputs = [flow.stats.bytes_received * 8.0 / horizon for flow in base]
    churn_tputs = [flow.stats.bytes_received * 8.0 / horizon
                   for _, flow in churn]
    fcts = []
    completed = 0
    for start, flow in churn:
        done = flow.sender.completion_time
        if done is not None:
            completed += 1
            fcts.append(done - start)
    queuing = np.concatenate(
        [np.asarray(flow.stats.queuing_delays, dtype=float)
         for flow in scenario.flows]) if scenario.flows else np.array([])
    return {
        "cell": cell,
        "mix": mix,
        "seed": seed,
        "utilization": result.link_utilization(link, t0=warmup),
        "throughput_bps": result.aggregate_throughput_bps(t0=warmup),
        "queuing_p99_ms": (float(np.percentile(queuing, 99.0)) * 1e3
                           if queuing.size else 0.0),
        "queuing_hist": queuing_histogram(queuing),
        "base_throughputs_bps": base_tputs,
        "churn_throughputs_bps": churn_tputs,
        "fct_s": fcts,
        "offered_flows": base_flows + len(churn),
        "completed_flows": completed,
        "drops": link.dropped_packets,
        "schemes": schemes,
    }
