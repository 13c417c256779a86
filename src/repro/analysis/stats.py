"""Seed-axis statistics for multi-seed sweeps.

The paper's headline numbers (Fig. 9's bars, Table 1, the Pareto scatters)
are point estimates from a single simulation seed.  This module turns the
per-seed results of a multi-seed grid
(:func:`~repro.experiments.runner.run_seed_grid`) into
:class:`SeedAggregate` summaries — mean, sample standard deviation, a 95 %
confidence interval on the mean, and the min/max envelope — so every
reported metric can carry an error bar.

The confidence interval uses the two-sided Student-t critical value for
``n - 1`` degrees of freedom (exact table up to 30 df, the asymptotic 1.96
beyond), i.e. ``half-width = t.975(n-1) · s / sqrt(n)``.  With a single seed
the half-width is 0 and the mean **is** the seed's value bit-for-bit, which
is what lets the multi-seed entry points collapse to the legacy single-seed
output.

Typical use::

    sweep = run_cellular_sweep(schemes, traces, seeds=[1, 2, 3])
    sweep["abc"]["Verizon-LTE-1"].utilization                # mean
    sweep["abc"]["Verizon-LTE-1"].stats["utilization"].ci95  # SeedAggregate
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

__all__ = [
    "SeedAggregate",
    "SeedResultSet",
    "aggregate_metric_dicts",
    "aggregate_values",
    "result_metrics",
    "split_by_seed",
    "t_critical_95",
]

#: Two-sided 95 % Student-t critical values, indexed by degrees of freedom
#: (1-based).  Beyond 30 df the normal approximation (1.96) is used.
_T_TABLE_95: Tuple[float, ...] = (
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
)

_Z_95 = 1.96


def t_critical_95(df: int) -> float:
    """Two-sided 95 % Student-t critical value for ``df`` degrees of freedom."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if df <= len(_T_TABLE_95):
        return _T_TABLE_95[df - 1]
    return _Z_95


@dataclass(frozen=True)
class SeedAggregate:
    """Summary statistics of one metric across seeds.

    ``ci95`` is the *half-width* of the two-sided 95 % confidence interval on
    the mean (Student-t); ``ci_lo``/``ci_hi`` give the interval bounds.  With
    ``n == 1`` the stdev and half-width are 0 and ``mean`` equals the single
    observation exactly.
    """

    n: int
    mean: float
    stdev: float
    ci95: float
    min: float
    max: float

    @property
    def ci_lo(self) -> float:
        return self.mean - self.ci95

    @property
    def ci_hi(self) -> float:
        return self.mean + self.ci95

    def __format__(self, spec: str) -> str:
        spec = spec or ".3f"
        return f"{self.mean:{spec}} ± {self.ci95:{spec}}"

    def __str__(self) -> str:  # pragma: no cover - repr nicety
        return format(self)


def aggregate_values(values: Sequence[float]) -> SeedAggregate:
    """Aggregate one metric's per-seed observations into a :class:`SeedAggregate`.

    A single observation aggregates to itself (mean is the value bit-for-bit,
    stdev and CI half-width are 0), so single-seed sweeps lose nothing by
    going through the aggregation path.
    """
    values = [float(v) for v in values]
    if not values:
        raise ValueError("aggregate_values needs at least one observation")
    n = len(values)
    if n == 1:
        value = values[0]
        return SeedAggregate(n=1, mean=value, stdev=0.0, ci95=0.0,
                             min=value, max=value)
    mean = sum(values) / n
    variance = sum((v - mean) ** 2 for v in values) / (n - 1)
    stdev = math.sqrt(variance)
    half_width = t_critical_95(n - 1) * stdev / math.sqrt(n)
    return SeedAggregate(n=n, mean=mean, stdev=stdev, ci95=half_width,
                         min=min(values), max=max(values))


def result_metrics(result: Any) -> Dict[str, float]:
    """Pull the numeric fields out of one sweep-cell result.

    Works on any metrics dataclass (``SingleBottleneckResult``,
    ``WiFiSchemeResult``, ...) or a plain mapping; non-numeric fields
    (labels, ``extra`` dicts, arrays) are skipped.  Booleans are excluded —
    averaging them across seeds would silently turn a claim check into a
    vote.
    """
    if isinstance(result, Mapping):
        items = result.items()
    elif dataclasses.is_dataclass(result) and not isinstance(result, type):
        items = ((f.name, getattr(result, f.name))
                 for f in dataclasses.fields(result))
    else:
        items = vars(result).items()
    return {name: float(value) for name, value in items
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def aggregate_metric_dicts(dicts: Sequence[Mapping[str, float]]
                           ) -> Dict[str, SeedAggregate]:
    """Aggregate a list of per-seed metric dicts key-by-key.

    Every dict must expose the same keys (one simulation per seed produces
    the same metric set); a mismatch raises :class:`ValueError` instead of
    silently dropping a seed's observation.
    """
    dicts = list(dicts)
    if not dicts:
        raise ValueError("aggregate_metric_dicts needs at least one dict")
    keys = list(dicts[0])
    for index, d in enumerate(dicts[1:], start=1):
        if set(d) != set(keys):
            raise ValueError(
                f"per-seed metric dicts disagree on keys: seed index 0 has "
                f"{sorted(keys)}, index {index} has {sorted(d)}")
    return {key: aggregate_values([d[key] for d in dicts]) for key in keys}


def split_by_seed(results: Sequence[Any], n_seeds: int) -> List[List[Any]]:
    """Regroup a flat seed-major result list into per-cell seed lists.

    Multi-seed entry points submit their jobs seed-major — all of seed 0's
    cells (in grid order), then all of seed 1's, and so on — and executors
    return results in submission order.  This inverts that layout:
    ``split_by_seed(results, k)[j]`` is grid cell ``j``'s results across the
    ``k`` seeds, in seed order, ready for :class:`SeedResultSet`.
    """
    results = list(results)
    if n_seeds <= 0 or (len(results) % n_seeds) != 0:
        raise ValueError(f"cannot split {len(results)} results into "
                         f"{n_seeds} equal seed blocks")
    span = len(results) // n_seeds
    return [[results[k * span + j] for k in range(n_seeds)]
            for j in range(span)]


class SeedResultSet:
    """Per-seed results of one sweep cell, readable like a single result.

    Multi-seed entry points return one of these per (scheme, trace) cell in
    place of the single result object.  It quacks like the underlying result:
    reading a numeric metric attribute (``set.utilization``) returns the
    across-seed **mean**, so single-seed consumers such as
    :func:`~repro.experiments.runner.sweep_averages` and the benchmark claim
    checks keep working unchanged.  The full distribution is available as

    * ``set.stats[name]`` / ``set.agg(name)`` — the metric's
      :class:`SeedAggregate` (mean, stdev, 95 % CI, min/max),
    * ``set.per_seed`` / ``set.seeds`` — the raw per-seed result objects in
      seed order.

    Non-numeric attributes (``scheme``, ``trace`` labels) are forwarded from
    the first seed's result.
    """

    def __init__(self, seeds: Sequence[int], results: Sequence[Any],
                 metrics: Any = None):
        seeds = tuple(seeds)
        results = tuple(results)
        if not results:
            raise ValueError("SeedResultSet needs at least one result")
        if len(seeds) != len(results):
            raise ValueError(
                f"got {len(seeds)} seeds but {len(results)} results")
        metrics_fn = metrics if metrics is not None else result_metrics
        self.seeds = seeds
        self.per_seed = results
        self.stats: Dict[str, SeedAggregate] = aggregate_metric_dicts(
            [metrics_fn(r) for r in results])

    def agg(self, name: str) -> SeedAggregate:
        """The :class:`SeedAggregate` of one metric."""
        return self.stats[name]

    def __getattr__(self, name: str) -> Any:
        if name.startswith("_"):
            raise AttributeError(name)
        stats = self.__dict__.get("stats") or {}
        if name in stats:
            return stats[name].mean
        per_seed = self.__dict__.get("per_seed") or ()
        if per_seed:
            try:
                return getattr(per_seed[0], name)
            except AttributeError:
                pass
        raise AttributeError(
            f"{type(self).__name__} has no metric or forwarded attribute "
            f"{name!r}")

    def __len__(self) -> int:
        return len(self.per_seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"<SeedResultSet seeds={self.seeds} "
                f"metrics={sorted(self.stats)}>")
