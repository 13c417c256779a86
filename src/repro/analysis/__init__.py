"""Measurement and allocation utilities.

* :mod:`repro.analysis.metrics` — the delay/throughput Pareto frontier
  (Fig. 8).
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
