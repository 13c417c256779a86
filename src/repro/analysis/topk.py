"""Space-Saving top-K heavy-hitter algorithm (Metwally, Agrawal & El Abbadi).

The ABC router's coexistence weight controller measures "the average rate of
the K largest flows in each queue" (§5.2) and the paper notes its
implementation uses the Space-Saving algorithm, which needs only O(K) space.
This is a faithful implementation: the structure keeps at most ``capacity``
counters; when a new key arrives and the table is full, the minimum counter is
evicted and the new key inherits its count (recorded as that key's maximum
possible error).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Tuple


class SpaceSaving:
    """Approximate top-K frequency / volume counting in O(K) space."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._counts: Dict[Hashable, float] = {}
        self._errors: Dict[Hashable, float] = {}
        self.total = 0.0

    def update(self, key: Hashable, amount: float = 1.0) -> None:
        """Add ``amount`` (bytes, packets, ...) to ``key``'s counter."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        self.total += amount
        if key in self._counts:
            self._counts[key] += amount
            return
        if len(self._counts) < self.capacity:
            self._counts[key] = amount
            self._errors[key] = 0.0
            return
        # Evict the minimum counter; the newcomer inherits its count, which
        # bounds the overestimation error by that minimum.
        victim = min(self._counts, key=self._counts.__getitem__)
        min_count = self._counts.pop(victim)
        self._errors.pop(victim, None)
        self._counts[key] = min_count + amount
        self._errors[key] = min_count

    def top(self, k: int) -> List[Tuple[Hashable, float]]:
        """The ``k`` largest keys as ``(key, estimated_count)`` pairs."""
        items = sorted(self._counts.items(), key=lambda kv: kv[1], reverse=True)
        return items[:k]

    def estimate(self, key: Hashable) -> float:
        """Estimated count for ``key`` (0.0 if not tracked)."""
        return self._counts.get(key, 0.0)

    def error_bound(self, key: Hashable) -> float:
        """Maximum overestimation error for ``key``."""
        return self._errors.get(key, 0.0)

    def __len__(self) -> int:
        return len(self._counts)

    def reset(self) -> None:
        self._counts.clear()
        self._errors.clear()
        self.total = 0.0
