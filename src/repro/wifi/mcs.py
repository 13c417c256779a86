"""802.11n MCS indices, their PHY bitrates and Appendix B's Brownian MCS walk.

The experiments vary the router's bitrate selection by forcing the MCS index
with ``iw``: alternating between 1 and 7 every two seconds for the main WiFi
experiment (Fig. 10, a :class:`~repro.simulator.link.SquareWaveRate` over the
two PHY rates), and following a Brownian-motion walk within [3, 7] for the
Appendix B variant (Fig. 14, :func:`brownian_mcs_rate`).
"""

from __future__ import annotations

import random

from repro.simulator.link import SteppedRate

#: 802.11n single-spatial-stream, 20 MHz, long guard interval PHY bitrates,
#: indexed by MCS index 0–7 (bits per second).
MCS_RATES_BPS = (
    6.5e6, 13.0e6, 19.5e6, 26.0e6, 39.0e6, 52.0e6, 58.5e6, 65.0e6,
)


def mcs_rate_bps(index: int) -> float:
    """PHY bitrate for an MCS index (0–7)."""
    if not 0 <= index < len(MCS_RATES_BPS):
        raise ValueError(f"MCS index must be in [0, {len(MCS_RATES_BPS) - 1}]")
    return MCS_RATES_BPS[index]


def brownian_mcs_rate(min_index: int, max_index: int, period: float,
                      seed: int, duration: float) -> SteppedRate:
    """The PHY rate of an MCS index on a bounded random walk (Appendix B).

    The index starts midway between the bounds and moves every ``period`` s
    by a ``random.Random(seed).choice((-1, 0, 1))`` draw, clipped to the
    bounds, through step ⌊duration/period⌋ + 1.  Step ``k`` starts at the
    float ``k·period``, where ⌊t/period⌋ reaches ``k`` at a power-of-two
    period (every spec's 2 s); at 0.3 or 0.7 s some edges fall one ulp off.
    """
    mcs_rate_bps(min_index)
    mcs_rate_bps(max_index)
    if min_index > max_index:
        raise ValueError("min_index must be <= max_index")
    if not period > 0:
        raise ValueError("period must be positive")
    rng = random.Random(seed)
    walk = [(min_index + max_index) // 2]
    for _ in range(int(duration / period) + 1):
        walk.append(min(max(walk[-1] + rng.choice((-1, 0, 1)), min_index),
                        max_index))
    return SteppedRate([(k * period, mcs_rate_bps(index))
                        for k, index in enumerate(walk)])
