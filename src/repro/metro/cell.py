"""One metro cell: one cellular bottleneck under mixed-flow churn.

:meth:`repro.metro.spec.MetroSpec.cell_spec` describes a cell as a
:class:`~repro.experiments.scenario_spec.ScenarioSpec`, workload draws and
all, and the ``metro`` summary (:func:`metro_summary`) runs it into a
plain-dict row, so a cell travels as a
:func:`~repro.experiments.scenario_spec.spec_cell` job like any figure cell
and the content-addressed :class:`~repro.runtime.cache.ResultCache` keys on
the whole scenario.

Each cell simulates one bottleneck (a trace-driven cellular link, a
square-wave sector or a fixed rate) carrying

* ``BASE_FLOWS`` long-lived backlogged flows started at t=0, and
* a churning population of short flows — Poisson arrivals, bounded-Pareto
  sizes — that start mid-run and depart when their transfer completes,

with every flow's scheme drawn from the weighted mix label (e.g.
``"abc:0.6,cubic:0.3,bbr:0.1"``).  All randomness comes from the
deterministic per-(cell, seed) streams in :mod:`repro.metro.workload`.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.experiments.scenario_spec import NATIVE, BuiltScenario
from repro.metro.aggregate import queuing_histogram


def metro_summary(built: BuiltScenario, mix: str, seed: int,
                  warmup: float = 0.0) -> Dict[str, Any]:
    """Run a :meth:`~repro.metro.spec.MetroSpec.cell_spec` cell into its
    picklable row (the ``metro`` summary), its backlogged flows the base.
    Per-flow throughputs, like ``throughput_bps``, cover ``[warmup,
    duration]``; ``mix`` and ``seed`` label the row."""
    scenario, duration = built.scenario, built.spec.duration
    link = scenario.links[0]
    base_flows = sum(flow.size_bytes is None for flow in built.spec.flows)
    base = built.flows[:base_flows]
    churn = list(zip(built.spec.flows[base_flows:], built.flows[base_flows:]))
    result = scenario.run(duration)

    base_tputs = [flow.stats.throughput_bps(warmup, duration) for flow in base]
    churn_tputs = [flow.stats.throughput_bps(warmup, duration)
                   for _, flow in churn]
    fcts = []
    completed = 0
    for spec, flow in churn:
        done = flow.sender.completion_time
        if done is not None:
            completed += 1
            fcts.append(done - spec.start_time)
    queuing = np.concatenate(
        [np.asarray(flow.stats.queuing_delays, dtype=float)
         for flow in scenario.flows]) if scenario.flows else np.array([])
    return {
        "cell": link.name,
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
        "schemes": ["abc" if flow.cc == NATIVE else flow.cc
                    for flow in built.spec.flows],
    }
