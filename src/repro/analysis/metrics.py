"""The delay/throughput Pareto frontier of Fig. 8."""

from __future__ import annotations

from typing import Iterable


def pareto_frontier(points: Iterable[tuple[str, float, float]]
                    ) -> list[tuple[str, float, float]]:
    """Return the Pareto-optimal subset of ``(name, delay, throughput)``.

    A point is on the frontier if no other point has both lower delay and
    higher throughput.  Fig. 8 draws this frontier over the prior schemes and
    shows ABC sitting outside it.
    """
    pts = list(points)
    frontier = []
    for name, delay, tput in pts:
        dominated = any(
            (other_delay <= delay and other_tput >= tput)
            and (other_delay < delay or other_tput > tput)
            for other_name, other_delay, other_tput in pts
            if other_name != name
        )
        if not dominated:
            frontier.append((name, delay, tput))
    return sorted(frontier, key=lambda item: item[1])


def is_outside_frontier(candidate: tuple[float, float],
                        frontier_points: Iterable[tuple[float, float]]) -> bool:
    """True when ``candidate = (delay, throughput)`` dominates the frontier.

    Used to assert the paper's qualitative claim that ABC sits outside the
    Pareto frontier of prior schemes: for every frontier point ABC either has
    lower delay with at least as much throughput, or more throughput with at
    most the same delay.
    """
    delay, tput = candidate
    for other_delay, other_tput in frontier_points:
        if other_delay <= delay and other_tput >= tput:
            return False
    return True
