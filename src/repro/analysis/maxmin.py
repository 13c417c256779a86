"""Max-min fair allocation over flow demands.

ABC's coexistence weight controller (§5.2) estimates the demand of every flow
sharing the bottleneck (top-K flows: measured rate inflated by X %; short
flows: their measured aggregate rate) and computes the max-min fair allocation
of the link capacity over those demands.  The weight of each queue is then the
total allocation of its flows.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping


def max_min_allocation(demands: Mapping[Hashable, float],
                       capacity: float) -> Dict[Hashable, float]:
    """Water-filling max-min fair allocation.

    Each flow receives ``min(demand, fair_share)`` where the fair share is
    raised iteratively as demand-limited flows leave capacity on the table.
    Flows with zero (or negative) demand receive zero.

    Parameters
    ----------
    demands:
        Mapping from flow key to demanded rate (any consistent unit).
    capacity:
        Total capacity to distribute (same unit as the demands).
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    allocation: Dict[Hashable, float] = {k: 0.0 for k in demands}
    remaining = {k: max(d, 0.0) for k, d in demands.items() if d > 0}
    available = capacity

    while remaining and available > 1e-12:
        share = available / len(remaining)
        satisfied = {k: d for k, d in remaining.items() if d <= share}
        if not satisfied:
            # Every remaining flow can absorb the equal share.
            for k in remaining:
                allocation[k] += share
            available = 0.0
            break
        for k, d in satisfied.items():
            allocation[k] += d
            available -= d
            del remaining[k]
    return allocation

