"""Experiment harnesses: the paper's figures as data, plus the spec builders
and summaries their cells name.

Every flow-carrying figure is a row of
:data:`repro.experiments.figures.FIGURES`: one seed's cells (a spec, a
summary name and its arguments each), a default or pinned seed and a title.
``tools/reproduce.py`` runs the rows, prints the tables and checks the
paper's claims; the integration tests assert the qualitative claims (who
wins, by roughly what factor, where crossovers fall).

Index (``README.md``'s figure table maps every figure to its row):

* :mod:`repro.experiments.figures` — the ``FIGURES`` table and
  ``run_figure``.
* :mod:`repro.experiments.scenario_spec` — ``ScenarioSpec``, ``build`` and
  ``spec_cell``, the one job function; :mod:`repro.experiments.summaries` —
  the ``SUMMARIES`` a cell names.
* :mod:`repro.experiments.runner` — scheme registry, the single-bottleneck
  cell, ``run_seed_grid`` (the one grid runner), ``run_cellular_sweep`` and
  the sweep tables.
* :mod:`repro.experiments.timeseries` — the ``timeseries`` summary (Figs. 1
  and 17, Theorem 3.1's packet-level check).
* :mod:`repro.experiments.feedback` — Fig. 2's trace and Algorithm 1's
  marking ablation.
* :mod:`repro.experiments.fairness` — the ``fairness`` cell (Fig. 3, §6.5).
* :mod:`repro.experiments.wifi_eval` — Fig. 4's probe, the Fig. 5 / 10 / 14
  cells and ``fig10_wifi``.
* :mod:`repro.experiments.coexistence` — the Fig. 6 / 7 / 11 / 12 / 13 cells
  and ``fig7_coexistence_timeseries``.
* :mod:`repro.experiments.stability_eval` — Theorem 3.1's fluid sweep.
"""
