"""Measurement and allocation utilities.

* :mod:`repro.analysis.metrics` — throughput, utilisation and delay metrics.
* :mod:`repro.analysis.fairness` — Jain's fairness index and convergence
  helpers.
* :mod:`repro.analysis.topk` — the Space-Saving heavy-hitter algorithm used by
  the ABC router's coexistence weight controller (§5.2).
* :mod:`repro.analysis.maxmin` — max-min fair allocation over flow demands.
* :mod:`repro.analysis.zombie` — RCP's Zombie-List flow-count estimator, the
  baseline weight-assignment strategy ABC is compared against in Fig. 12.
* :mod:`repro.analysis.stats` — seed-axis statistics (mean, stdev, 95 % CI)
  for multi-seed sweeps.
"""

from repro.analysis.fairness import jain_fairness_index
from repro.analysis.maxmin import max_min_allocation
from repro.analysis.metrics import normalize_to_reference, percentile, utilization
from repro.analysis.stats import (SeedAggregate, SeedResultSet,
                                  aggregate_metric_dicts, aggregate_values,
                                  result_metrics, t_critical_95)
from repro.analysis.topk import SpaceSaving
from repro.analysis.zombie import ZombieList

__all__ = [
    "SeedAggregate",
    "SeedResultSet",
    "aggregate_metric_dicts",
    "aggregate_values",
    "result_metrics",
    "t_critical_95",
    "jain_fairness_index",
    "max_min_allocation",
    "utilization",
    "percentile",
    "normalize_to_reference",
    "SpaceSaving",
    "ZombieList",
]
