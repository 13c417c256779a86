"""Experiment harnesses: one module per paper figure/table.

Each experiment function is pure Python (no plotting): it runs the relevant
simulations and returns the rows/series the corresponding figure or table in
the paper reports.  The benchmark harnesses under ``benchmarks/`` call these
functions and print the results; the integration tests assert the qualitative
claims (who wins, by roughly what factor, where crossovers fall).

Index (``README.md``'s figure table maps every figure to its benchmark):

* :mod:`repro.experiments.runner` — scheme registry, the single-bottleneck
  cellular runner shared by most experiments, and ``run_seed_grid``, the one
  grid runner (the seed axis of every figure).
* :mod:`repro.experiments.timeseries` — Fig. 1 and Fig. 17 time series.
* :mod:`repro.experiments.feedback` — Fig. 2 dequeue- vs enqueue-rate ablation.
* :mod:`repro.experiments.fairness` — Fig. 3, the Jain-index experiment (§6.5).
* :mod:`repro.experiments.pareto` — Figs. 8, 9, 15, 16, 18 and Table 1.
* :mod:`repro.experiments.wifi_eval` — Figs. 4, 5, 10 and 14.
* :mod:`repro.experiments.coexistence` — Figs. 6, 7, 11, 12 and 13.
* :mod:`repro.experiments.oracle` — the PK-ABC comparison (§6.6).
* :mod:`repro.experiments.stability_eval` — Theorem 3.1 boundary sweep.
"""

from repro.experiments.runner import (SCHEME_NAMES, SingleBottleneckResult,
                                      make_scheme, run_cellular_sweep,
                                      run_single_bottleneck)

__all__ = [
    "SCHEME_NAMES",
    "SingleBottleneckResult",
    "make_scheme",
    "run_single_bottleneck",
    "run_cellular_sweep",
]
