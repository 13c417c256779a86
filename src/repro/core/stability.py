"""Fluid model and stability analysis of the ABC control loop (Theorem 3.1).

Appendix A models a single ABC link shared by ``N`` flows with round-trip
propagation delay ``τ`` as the delay-differential equation

    ẋ(t) = A − (1/δ) · (x(t − τ) − dt)⁺ ,      A = (η − 1) + N / (µ · l)

where ``x(t)`` is the queuing delay, ``l`` is the additive-increase period
(one extra packet every ``l`` seconds, i.e. one per RTT) and ``y⁺ = max(y, 0)``.
Yorke's theorem gives global asymptotic stability whenever ``δ > 2τ/3``.

:class:`FluidModel` integrates the DDE with a forward-Euler scheme and a
history buffer so the theorem's predictions (fixed point, convergence,
oscillation below the bound) can be checked numerically and compared against
the packet-level simulator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.params import ABCParams

#: One packet (an MTU), in bits.
MSS_BITS = 12000.0
#: Convergence is judged over this final share of an integration.
SETTLE_FRACTION = 0.2
#: How long (s) :meth:`FluidModel.empirical_stability` integrates.
EMPIRICAL_DURATION = 60.0


def stability_threshold(tau: float) -> float:
    """The Theorem 3.1 bound: ABC is stable when ``δ > 2/3 · τ``."""
    if tau < 0:
        raise ValueError("tau must be non-negative")
    return 2.0 * tau / 3.0


def is_theoretically_stable(delta: float, tau: float) -> bool:
    """Check the sufficient stability condition of Theorem 3.1."""
    return delta > stability_threshold(tau)


@dataclass
class FluidModelResult:
    """Outcome of a fluid-model integration."""

    times: np.ndarray
    queuing_delay: np.ndarray
    fixed_point: float
    converged: bool
    final_error: float
    oscillation_amplitude: float


class FluidModel:
    """Numerical integration of the ABC fluid model (Appendix A).

    Parameters
    ----------
    params:
        ABC parameters; ``eta``, ``delta`` and ``delay_threshold`` are used.
    tau:
        Round-trip propagation (feedback) delay in seconds.
    num_flows:
        Number of competing ABC flows ``N``.
    capacity_bps:
        Link capacity µ (constant, per the theorem's setting).

    A packet is ``MSS_BITS`` bits, which converts the additive-increase
    packet rate into a rate fraction of µ.
    """

    def __init__(self, params: Optional[ABCParams] = None, tau: float = 0.1,
                 num_flows: int = 1, capacity_bps: float = 10e6):
        if tau <= 0:
            raise ValueError("tau must be positive")
        if num_flows < 0:
            raise ValueError("num_flows must be non-negative")
        if capacity_bps <= 0:
            raise ValueError("capacity_bps must be positive")
        self.params = params if params is not None else ABCParams()
        self.tau = tau
        self.num_flows = num_flows
        self.capacity_bps = capacity_bps

    # ------------------------------------------------------------ constants
    @property
    def drift(self) -> float:
        """The constant ``A = (η − 1) + N/(µ·l)`` (with N·mss/l in bit/s),
        where each sender adds one packet every ``l = tau`` seconds: the
        paper's additive increase is one packet per RTT."""
        ai_rate_bps = self.num_flows * MSS_BITS / self.tau
        return (self.params.eta - 1.0) + ai_rate_bps / self.capacity_bps

    def fixed_point(self) -> float:
        """Equilibrium queuing delay ``x* = A·δ + dt`` (0 when A ≤ 0)."""
        a = self.drift
        if a <= 0:
            return 0.0
        return a * self.params.delta + self.params.delay_threshold

    def equilibrium_rate_fraction(self) -> float:
        """Equilibrium enqueue rate as a fraction of µ (Eqs. 15 and 18).

        ``η + N/(µ·l)`` when A < 0 (queue empties; utilisation between η and
        1), and exactly 1 when A > 0 (the queue stabilises above ``dt``).
        """
        a = self.drift
        if a <= 0:
            return min(1.0 + a, 1.0)
        return 1.0

    # ------------------------------------------------------------ integration
    def simulate(self, duration: float = 30.0, step: float = 1e-3,
                 initial_delay: float = 0.0,
                 convergence_tolerance: float = 1e-3) -> FluidModelResult:
        """Integrate the DDE and report convergence behaviour.

        ``converged`` is True when, over the final ``SETTLE_FRACTION`` of the
        run, the queuing delay stays within ``convergence_tolerance`` seconds
        of the theoretical fixed point.
        """
        if duration <= 0 or step <= 0:
            raise ValueError("duration and step must be positive")
        if step >= self.tau:
            raise ValueError("step must be smaller than the feedback delay tau")
        n_steps = int(math.ceil(duration / step))
        delay_steps = max(int(round(self.tau / step)), 1)
        x = np.empty(n_steps + 1)
        x[0] = max(initial_delay, 0.0)
        a = self.drift
        inv_delta = 1.0 / self.params.delta
        dt_threshold = self.params.delay_threshold

        for i in range(n_steps):
            delayed_index = i - delay_steps
            delayed_x = x[delayed_index] if delayed_index >= 0 else x[0]
            drain = inv_delta * max(delayed_x - dt_threshold, 0.0)
            x_next = x[i] + step * (a - drain)
            x[i + 1] = max(x_next, 0.0)

        times = np.arange(n_steps + 1) * step
        fixed = self.fixed_point()
        settle_start = int((1.0 - SETTLE_FRACTION) * n_steps)
        tail = x[settle_start:]
        final_error = float(np.max(np.abs(tail - fixed))) if tail.size else math.inf
        amplitude = float(np.max(tail) - np.min(tail)) if tail.size else math.inf
        converged = final_error <= convergence_tolerance
        return FluidModelResult(
            times=times,
            queuing_delay=x,
            fixed_point=fixed,
            converged=converged,
            final_error=final_error,
            oscillation_amplitude=amplitude,
        )

    def empirical_stability(self) -> bool:
        """Check convergence numerically over ``EMPIRICAL_DURATION`` from a
        500 ms initial queuing delay (to within 2 ms of the fixed point)."""
        result = self.simulate(duration=EMPIRICAL_DURATION, initial_delay=0.5,
                               convergence_tolerance=2e-3)
        return result.converged
