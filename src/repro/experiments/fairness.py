"""Fairness experiments: Fig. 3 (additive increase) and the §6.5 Jain sweep.

Fig. 3 starts five ABC flows one by one (and stops them one by one) on a fixed
24 Mbit/s link; without the additive-increase term the flows keep whatever
rate they happened to have when they started (MIMD preserves ratios), with it
they converge to equal shares.  §6.5 reports that for 2–32 competing ABC flows
the Jain fairness index stays within 5 % of 1.  Both rows of
:data:`repro.experiments.figures.FIGURES` are :func:`shared_link_job` cells
measured by :func:`fairness_summary`, on a deterministic link, so their seed
list is pinned to ``(0,)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.params import ABCParams
from repro.experiments.scenario_spec import (BuiltScenario, FlowSpec, LinkSpec,
                                             ScenarioSpec, spec_job)
from repro.runtime.spec import SweepJob

#: Fig. 3 and §6.5: the shared link's rate (Mbit/s).
LINK_MBPS = 24.0
#: §6.5: flow starts are spread over this many seconds.
START_JITTER = 0.2
#: Fig. 3's throughput bin width (s).
FAIRNESS_BIN = 1.0


def shared_link_job(label: str, duration: float,
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
