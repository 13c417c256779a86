"""Fairness experiments: Fig. 3 (additive increase) and the §6.5 Jain sweep.

Fig. 3 starts five ABC flows one by one (and stops them one by one) on a fixed
24 Mbit/s link; without the additive-increase term the flows keep whatever
rate they happened to have when they started (MIMD preserves ratios), with it
they converge to equal shares.  §6.5 reports that for 2–32 competing ABC flows
the Jain fairness index stays within 5 % of 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.analysis.fairness import jain_fairness_index
from repro.core.params import ABCParams
from repro.experiments.scenario_spec import (FlowSpec, LinkSpec, ScenarioSpec,
                                             build)


def _shared_link(link_mbps: float, buffer_packets: int) -> LinkSpec:
    return LinkSpec("constant", {"rate_bps": link_mbps * 1e6},
                    buffer_packets=buffer_packets, name="shared")


@dataclass
class FairnessResult:
    """Per-flow throughput time series for a staggered-arrival experiment."""

    times: np.ndarray
    per_flow_mbps: Dict[int, np.ndarray]
    steady_state_jain: float
    steady_state_throughputs_mbps: List[float]


def fig3_fairness(additive_increase: bool, num_flows: int = 5,
                  link_mbps: float = 24.0, stagger: float = 20.0,
                  rtt: float = 0.1, bin_size: float = 1.0,
                  buffer_packets: int = 250) -> FairnessResult:
    """Reproduce one panel of Fig. 3 (with or without additive increase).

    Flows start ``stagger`` seconds apart; the steady-state window is the
    interval during which all flows are active (just before the run ends).
    """
    duration = stagger * (num_flows + 1)
    built = build(ScenarioSpec(
        scheme="abc", duration=duration,
        links=[_shared_link(link_mbps, buffer_packets)],
        flows=[FlowSpec(rtt=rtt, start_time=index * stagger,
                        label=f"abc-{index}") for index in range(num_flows)],
        abc_params=ABCParams(additive_increase=additive_increase)))
    flows = built.flows
    built.scenario.run(duration)

    per_flow: Dict[int, np.ndarray] = {}
    times = np.array([])
    for flow in flows:
        t, tput = flow.stats.throughput_timeseries(bin_size=bin_size, t1=duration)
        per_flow[flow.flow_id] = tput / 1e6
        if t.size > times.size:
            times = t
    # Steady state: the final stagger window, when every flow is running.
    t0 = stagger * num_flows
    steady = [flow.stats.throughput_bps(t0, duration) / 1e6 for flow in flows]
    jain = jain_fairness_index([max(v, 1e-9) for v in steady])
    return FairnessResult(times=times, per_flow_mbps=per_flow,
                          steady_state_jain=jain,
                          steady_state_throughputs_mbps=steady)


def jain_index_sweep(flow_counts: Sequence[int] = (2, 4, 8, 16, 32),
                     link_mbps: float = 24.0, duration: float = 60.0,
                     rtt: float = 0.1, warmup: float = 20.0,
                     start_jitter: float = 0.2) -> Dict[int, float]:
    """§6.5: Jain fairness index for N simultaneous ABC flows.

    Flow starts are jittered by a fraction of a second: with a perfectly
    deterministic simulator, identical flows started at the exact same instant
    can phase-lock onto the deterministic marking pattern, an artefact a real
    deployment's natural jitter never exhibits.
    """
    out: Dict[int, float] = {}
    for count in flow_counts:
        built = build(ScenarioSpec(
            scheme="abc", duration=duration,
            links=[_shared_link(link_mbps, 500)],
            flows=[FlowSpec(rtt=rtt, start_time=i * start_jitter / max(count, 1),
                            label=f"abc-{i}") for i in range(count)]))
        flows = built.flows
        built.scenario.run(duration)
        throughputs = [max(f.stats.throughput_bps(warmup, duration), 1e-9)
                       for f in flows]
        out[count] = jain_fairness_index(throughputs)
    return out
