"""802.11n MCS indices, PHY bitrates and the MCS schedules used in §6.3.

The experiments vary the router's bitrate selection by forcing the MCS index
with ``iw``: alternating between 1 and 7 every two seconds for the main WiFi
experiment (Fig. 10), and following a Brownian-motion walk within [3, 7] for
the Appendix B variant (Fig. 14).
"""

from __future__ import annotations

import math
import random

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


class MCSSchedule:
    """Maps simulated time to the MCS index in force at that time."""

    def index_at(self, t: float) -> int:
        raise NotImplementedError

    def rate_at(self, t: float) -> float:
        return mcs_rate_bps(self.index_at(t))


class FixedMCSSchedule(MCSSchedule):
    """A link that stays at one MCS index (used for Fig. 4/5's three links)."""

    def __init__(self, index: int):
        mcs_rate_bps(index)  # validate
        self.index = index

    def index_at(self, t: float) -> int:
        return self.index


class AlternatingMCSSchedule(MCSSchedule):
    """Alternate between two MCS indices on a fixed period (Fig. 10).

    The paper alternates between MCS 1 and MCS 7 every 2 seconds to mimic a
    user moving between poor and good signal conditions.
    """

    def __init__(self, low_index: int = 1, high_index: int = 7,
                 period: float = 2.0):
        mcs_rate_bps(low_index)
        mcs_rate_bps(high_index)
        if period <= 0:
            raise ValueError("period must be positive")
        self.low_index = low_index
        self.high_index = high_index
        self.period = period

    def index_at(self, t: float) -> int:
        phase = int(t / self.period) % 2
        return self.high_index if phase == 0 else self.low_index


class BrownianMCSSchedule(MCSSchedule):
    """MCS index following a bounded random walk (Appendix B, Fig. 14).

    The index changes every ``period`` seconds by ±1 (or stays), clipped to
    ``[min_index, max_index]``.  The walk is precomputed lazily and cached so
    repeated queries are cheap and deterministic for a given seed.
    """

    def __init__(self, min_index: int = 3, max_index: int = 7,
                 period: float = 2.0, seed: int = 0):
        mcs_rate_bps(min_index)
        mcs_rate_bps(max_index)
        if min_index > max_index:
            raise ValueError("min_index must be <= max_index")
        if period <= 0:
            raise ValueError("period must be positive")
        self.min_index = min_index
        self.max_index = max_index
        self.period = period
        self._rng = random.Random(seed)
        self._walk = [(min_index + max_index) // 2]

    def _extend_to(self, steps: int) -> None:
        while len(self._walk) <= steps:
            move = self._rng.choice((-1, 0, 1))
            nxt = min(max(self._walk[-1] + move, self.min_index), self.max_index)
            self._walk.append(nxt)

    def index_at(self, t: float) -> int:
        step = max(int(math.floor(t / self.period)), 0)
        self._extend_to(step)
        return self._walk[step]
