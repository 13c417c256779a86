"""Fairness experiments: Fig. 3 (additive increase) and the §6.5 Jain sweep.

Fig. 3 starts five ABC flows one by one (and stops them one by one) on a fixed
24 Mbit/s link; without the additive-increase term the flows keep whatever
rate they happened to have when they started (MIMD preserves ratios), with it
they converge to equal shares.  §6.5 reports that for 2–32 competing ABC flows
the Jain fairness index stays within 5 % of 1.  Both run ``fairness`` cells on
a deterministic link, so their seed list is pinned to ``(0,)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.fairness import jain_fairness_index
from repro.core.params import ABCParams
from repro.experiments.runner import run_seed_grid
from repro.experiments.scenario_spec import (BuiltScenario, FlowSpec, LinkSpec,
                                             ScenarioSpec, spec_job)
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepJob

#: Fig. 3 and §6.5: the shared link's rate (Mbit/s).
LINK_MBPS = 24.0
#: §6.5: flow starts are spread over this many seconds.
START_JITTER = 0.2
#: Fig. 3's throughput bin width (s).
FAIRNESS_BIN = 1.0


def _shared_link_job(label: str, duration: float,
                     starts: Sequence[float], buffer_packets: int,
                     abc_params: Optional[ABCParams] = None,
                     **summary_args) -> SweepJob:
    """One ``fairness`` cell: ABC flows starting at ``starts`` on a shared
    constant-rate link."""
    return spec_job(ScenarioSpec(
        scheme="abc", duration=duration, abc_params=abc_params,
        links=[LinkSpec("constant", {"rate_bps": LINK_MBPS * 1e6},
                        buffer_packets=buffer_packets, name="shared")],
        flows=[FlowSpec(start_time=start, label=f"abc-{i}")
               for i, start in enumerate(starts)]),
        "fairness", label, **summary_args)


@dataclass
class FlowThroughputs:
    """Each flow's goodput over ``[t0, duration]`` and its binned series;
    ``times`` are the bin centres of the longest series."""

    throughputs_bps: List[float]
    times: np.ndarray
    per_flow_bps: List[np.ndarray]


def fairness_summary(built: BuiltScenario,
                     t0: float = 0.0) -> FlowThroughputs:
    """Run a shared-link scenario and measure every flow (the ``fairness``
    summary)."""
    duration = built.spec.duration
    built.scenario.run(duration)
    stats = [flow.stats for flow in built.flows]
    series = [s.throughput_timeseries(bin_size=FAIRNESS_BIN, t1=duration)
              for s in stats]
    return FlowThroughputs([s.throughput_bps(t0, duration) for s in stats],
                           max((t for t, _ in series), key=len),
                           [tput for _, tput in series])


@dataclass
class FairnessResult:
    """Per-flow throughput time series for a staggered-arrival experiment."""

    times: np.ndarray
    per_flow_mbps: Dict[int, np.ndarray]
    steady_state_jain: float
    steady_state_throughputs_mbps: List[float]


def fig3_fairness(additive_increase: bool, num_flows: int = 5,
                  stagger: float = 20.0,
                  buffer_packets: int = 250,
                  executor: Optional[SweepExecutor] = None) -> FairnessResult:
    """Reproduce one panel of Fig. 3 (with or without additive increase).

    Flows start ``stagger`` seconds apart; the steady-state window is the
    interval during which all flows are active (just before the run ends).
    """
    job = _shared_link_job(
        f"fig3/ai{int(additive_increase)}", stagger * (num_flows + 1),
        [index * stagger for index in range(num_flows)], buffer_packets,
        ABCParams(additive_increase=additive_increase),
        t0=stagger * num_flows)
    cell = run_seed_grid(lambda s: [job], 0, (0,), executor)[0]
    steady = [tput / 1e6 for tput in cell.throughputs_bps]
    return FairnessResult(
        cell.times, {i: tput / 1e6 for i, tput in enumerate(cell.per_flow_bps)},
        jain_fairness_index([max(v, 1e-9) for v in steady]), steady)


def jain_index_sweep(flow_counts: Sequence[int] = (2, 4, 8, 16, 32),
                     duration: float = 60.0,
                     warmup: float = 20.0,
                     executor: Optional[SweepExecutor] = None
                     ) -> Dict[int, float]:
    """§6.5: Jain fairness index for N simultaneous ABC flows.

    Flow starts are jittered by a fraction of a second: with a perfectly
    deterministic simulator, identical flows started at the exact same instant
    can phase-lock onto the deterministic marking pattern, an artefact a real
    deployment's natural jitter never exhibits.
    """
    jobs = [_shared_link_job(
                f"jain/n{count}", duration,
                [i * START_JITTER / max(count, 1) for i in range(count)], 500,
                t0=warmup)
            for count in flow_counts]
    cells = run_seed_grid(lambda s: jobs, 0, (0,), executor)
    return {count: jain_fairness_index([max(t, 1e-9)
                                        for t in cell.throughputs_bps])
            for count, cell in zip(flow_counts, cells)}
