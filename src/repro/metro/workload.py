"""Deterministic workload generators for the metro scenario pack.

Every generator draws from its own :class:`random.Random` stream seeded by a
string key (``"metro-<purpose>:<cell>:<seed>"``), so

* the same (cell, seed) always produces the same arrivals/sizes/schemes —
  across processes, across serial/parallel execution and across cache
  replays (the :mod:`repro.runtime` determinism contract);
* different cells (and different purposes within a cell) are statistically
  independent without any cross-stream bookkeeping.

The flow-size law is a bounded Pareto — the canonical heavy-tailed "mice and
elephants" model for flow sizes — sampled by inverting its CDF:

    F(x) = (1 - (xm/x)^a) / (1 - (xm/xM)^a),   xm <= x <= xM

so ``x = xm / (1 - U * (1 - (xm/xM)^a))^(1/a)`` maps uniform ``U`` onto the
truncated tail exactly (no rejection loop, deterministic draw count).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple


def parse_mix(label: str) -> List[Tuple[str, float]]:
    """Parse a weighted scheme-mix label like ``"abc:0.6,cubic:0.3,bbr:0.1"``.

    A bare scheme name (no ``:weight``) gets weight 1.0, so every plain
    scheme label is also a valid single-scheme mix.  Weights must be positive;
    normalisation happens at sampling time.
    """
    mix: List[Tuple[str, float]] = []
    for part in str(label).split(","):
        part = part.strip()
        if not part:
            continue
        name, _, weight_text = part.partition(":")
        name = name.strip().lower()
        if not name:
            raise ValueError(f"empty scheme name in mix label {label!r}")
        weight = 1.0
        if weight_text.strip():
            try:
                weight = float(weight_text)
            except ValueError as exc:
                raise ValueError(
                    f"bad weight {weight_text!r} in mix label {label!r}"
                ) from exc
        if weight <= 0.0:
            raise ValueError(f"weight for {name!r} must be positive in mix "
                             f"label {label!r}")
        mix.append((name, weight))
    if not mix:
        raise ValueError(f"mix label {label!r} names no schemes")
    return mix


def stream(purpose: str, cell: str, seed: int) -> random.Random:
    """An independent, reproducible RNG stream for one (purpose, cell, seed)."""
    return random.Random(f"metro-{purpose}:{cell}:{seed}")


def poisson_arrivals(rate_per_s: float, duration: float, cell: str,
                     seed: int) -> List[float]:
    """Poisson-process arrival times in ``(0, duration)``, ascending.

    ``rate_per_s`` is the mean flow-arrival rate λ; inter-arrival gaps are
    i.i.d. ``Exp(λ)``.  A non-positive rate means no churn.
    """
    if rate_per_s <= 0.0 or duration <= 0.0:
        return []
    rng = stream("arrivals", cell, seed)
    times: List[float] = []
    t = rng.expovariate(rate_per_s)
    while t < duration:
        times.append(t)
        t += rng.expovariate(rate_per_s)
    return times


def bounded_pareto_sizes(n: int, cell: str, seed: int, min_bytes: int,
                         max_bytes: int, alpha: float) -> List[int]:
    """``n`` heavy-tailed flow sizes from a bounded Pareto(α, xm, xM)."""
    if n <= 0:
        return []
    if not 0 < min_bytes <= max_bytes:
        raise ValueError("need 0 < min_bytes <= max_bytes")
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    rng = stream("sizes", cell, seed)
    ratio_a = (min_bytes / max_bytes) ** alpha
    inv_a = 1.0 / alpha
    sizes: List[int] = []
    for _ in range(n):
        u = rng.random()
        x = min_bytes / (1.0 - u * (1.0 - ratio_a)) ** inv_a
        # Clamp guards the u→1 float edge; int() keeps sizes picklable and
        # byte-exact across platforms.
        sizes.append(min(int(x), max_bytes))
    return sizes


def scheme_assignment(n: int, mix: Sequence[Tuple[str, float]], cell: str,
                      seed: int) -> List[str]:
    """Assign ``n`` flows to schemes by weighted draw from ``mix``.

    ``mix`` is a sequence of ``(scheme, weight)`` pairs (weights need not be
    normalised).  Draws are independent per flow, from the cell's own stream.
    """
    if n <= 0:
        return []
    if not mix:
        raise ValueError("mix must not be empty")
    total = float(sum(w for _, w in mix))
    if total <= 0.0:
        raise ValueError("mix weights must sum to a positive value")
    rng = stream("schemes", cell, seed)
    names: List[str] = []
    for _ in range(n):
        u = rng.random() * total
        acc = 0.0
        chosen = mix[-1][0]
        for name, weight in mix:
            acc += weight
            if u < acc:
                chosen = name
                break
        names.append(chosen)
    return names
