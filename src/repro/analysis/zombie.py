"""RCP's Zombie-List flow-count estimator (Ott, Lakshman & Wong, SRED).

RCP estimates the number of active flows in a queue by maintaining a small
"zombie list" of recently seen flow identifiers: each arriving packet is
compared against a randomly chosen zombie; a match ("hit") suggests few flows,
a mismatch ("miss") suggests many.  The hit probability ``p`` estimated with
an EWMA gives a flow-count estimate of ``1/p``.

The paper uses this estimator as the baseline weight-assignment strategy that
ABC's max-min approach is compared against in Fig. 12: equalising *average*
rates via flow counts over-serves queues that contain many short
(demand-limited) flows.
"""

from __future__ import annotations

import random
from typing import Hashable, List

#: EWMA gain of the hit-probability estimate.
ALPHA = 0.02


class ZombieList:
    """SRED-style flow-count estimation from packet arrivals."""

    def __init__(self, size: int = 64, seed: int = 0):
        if size <= 0:
            raise ValueError("size must be positive")
        self.size = size
        self._rng = random.Random(seed)
        self._zombies: List[Hashable] = []
        self._hit_probability = 0.0
        self.packets_seen = 0

    def observe(self, flow_key: Hashable) -> None:
        """Record one packet arrival from ``flow_key``."""
        self.packets_seen += 1
        if not self._zombies:
            self._zombies.append(flow_key)
            return
        idx = self._rng.randrange(len(self._zombies))
        hit = self._zombies[idx] == flow_key
        self._hit_probability = ((1.0 - ALPHA) * self._hit_probability
                                 + ALPHA * (1.0 if hit else 0.0))
        if hit:
            return
        # On a miss, with some probability overwrite the chosen zombie (or
        # grow the list while it is not full) so the list tracks the current
        # flow population.
        if len(self._zombies) < self.size:
            self._zombies.append(flow_key)
        elif self._rng.random() < 0.25:
            self._zombies[idx] = flow_key

    def estimated_flow_count(self) -> float:
        """Estimated number of active flows (≥ 1)."""
        if self._hit_probability <= 1e-6:
            return float(max(len(self._zombies), 1))
        return max(1.0 / self._hit_probability, 1.0)

    def reset(self) -> None:
        self._zombies.clear()
        self._hit_probability = 0.0
        self.packets_seen = 0
