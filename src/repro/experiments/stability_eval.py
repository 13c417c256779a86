"""Theorem 3.1: the δ > 2τ/3 stability boundary, checked two ways.

The fluid model (Appendix A) predicts that the ABC control loop converges to a
fixed queuing delay whenever ``δ > 2τ/3`` and oscillates (or converges much
more slowly) below the boundary.  This module sweeps δ/τ ratios through the
numerical fluid model and, optionally, through the packet-level simulator, so
the theorem can be validated and the δ = 133 ms / τ = 100 ms default justified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.params import ABCParams
from repro.core.stability import FluidModel, stability_threshold
from repro.experiments.runner import run_seed_grid, single_bottleneck_spec
from repro.experiments.scenario_spec import spec_job
from repro.runtime.executor import SweepExecutor


@dataclass
class StabilityPoint:
    delta: float
    tau: float
    theoretically_stable: bool
    fluid_converged: bool
    fluid_oscillation_s: float
    fixed_point_s: float


def fluid_stability_sweep(delta_over_tau: Sequence[float] = (0.4, 0.55, 0.67,
                                                             0.8, 1.0, 1.33, 2.0),
                          tau: float = 0.1, num_flows: int = 10,
                          capacity_bps: float = 10e6,
                          duration: float = 60.0) -> Dict[float, StabilityPoint]:
    """Integrate the fluid model for several δ/τ ratios."""
    out: Dict[float, StabilityPoint] = {}
    for ratio in delta_over_tau:
        delta = ratio * tau
        params = ABCParams(delta=delta)
        model = FluidModel(params=params, tau=tau, num_flows=num_flows,
                           capacity_bps=capacity_bps)
        result = model.simulate(duration=duration, initial_delay=0.3,
                                convergence_tolerance=2e-3)
        out[ratio] = StabilityPoint(
            delta=delta,
            tau=tau,
            theoretically_stable=delta > stability_threshold(tau),
            fluid_converged=result.converged,
            fluid_oscillation_s=result.oscillation_amplitude,
            fixed_point_s=result.fixed_point,
        )
    return out


@dataclass
class PacketLevelStabilityPoint:
    delta: float
    utilization: float
    queuing_p95_ms: float
    queuing_std_ms: float


def packet_level_stability(delta_values: Sequence[float] = (0.04, 0.133, 0.4),
                           tau: float = 0.1, link_mbps: float = 24.0,
                           duration: float = 30.0,
                           executor: Optional[SweepExecutor] = None
                           ) -> Dict[float, PacketLevelStabilityPoint]:
    """Run the real ABC stack on a constant link for several δ values.

    Small δ (below 2τ/3) over-reacts to queue build-up and produces visible
    rate/queue oscillation and lower utilisation; large δ is stable but drains
    queues more slowly.  Each δ is a ``timeseries`` cell (0.25 s bins); the
    link is deterministic, so the seed list is pinned to ``(0,)``.
    """
    jobs = [spec_job(single_bottleneck_spec(
                "abc", link_mbps * 1e6, rtt=tau, duration=duration,
                abc_params=ABCParams(delta=delta)),
                "timeseries", f"stability/delta{delta:g}", bin_size=0.25)
            for delta in delta_values]
    series = run_seed_grid(lambda s: jobs, 0, (0,), executor)
    return {delta: PacketLevelStabilityPoint(
                delta=delta, utilization=ts.utilization,
                queuing_p95_ms=ts.queuing_p95_ms,
                queuing_std_ms=(float(np.std(ts.queuing_delay_ms))
                                if ts.queuing_delay_ms.size else 0.0))
            for delta, ts in zip(delta_values, series)}
