"""Theorem 3.1: the δ > 2τ/3 stability boundary, checked two ways.

The fluid model (Appendix A) predicts that the ABC control loop converges to a
fixed queuing delay whenever ``δ > 2τ/3`` and oscillates (or converges much
more slowly) below the boundary.  This module sweeps δ/τ ratios through the
numerical fluid model; the ``stability`` row of
:data:`repro.experiments.figures.FIGURES` runs the packet-level simulator at
several δ on a ``LINK_MBPS`` link, so the theorem can be validated and the
δ = 133 ms / τ = 100 ms default justified.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.params import ABCParams
from repro.core.stability import FluidModel, stability_threshold

#: The feedback delay τ (s) of both sweeps, the packet-level link's rate
#: (Mbit/s); the fluid model's flow count and δ/τ ratios.
TAU = 0.1
LINK_MBPS = 24.0
FLUID_FLOWS = 10
FLUID_RATIOS = (0.4, 0.55, 0.67, 0.8, 1.0, 1.33, 2.0)
#: The fluid model's link rate (bit/s): this sweep is the one caller outside
#: the tests that sets ``FluidModel(capacity_bps)``.
FLUID_CAPACITY_BPS = 10e6


@dataclass
class StabilityPoint:
    delta: float
    tau: float
    theoretically_stable: bool
    fluid_converged: bool
    fluid_oscillation_s: float
    fixed_point_s: float


def fluid_stability_sweep() -> Dict[float, StabilityPoint]:
    """Integrate the fluid model for each of the ``FLUID_RATIOS``."""
    out: Dict[float, StabilityPoint] = {}
    for ratio in FLUID_RATIOS:
        delta = ratio * TAU
        params = ABCParams(delta=delta)
        model = FluidModel(params=params, tau=TAU, num_flows=FLUID_FLOWS,
                           capacity_bps=FLUID_CAPACITY_BPS)
        result = model.simulate(duration=60.0, initial_delay=0.3,
                                convergence_tolerance=2e-3)
        out[ratio] = StabilityPoint(
            delta=delta,
            tau=TAU,
            theoretically_stable=delta > stability_threshold(TAU),
            fluid_converged=result.converged,
            fluid_oscillation_s=result.oscillation_amplitude,
            fixed_point_s=result.fixed_point,
        )
    return out
