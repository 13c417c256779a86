"""The summaries a ``spec_cell`` job names: ``SUMMARIES[name]`` is the
``"module:function"`` of a summary, imported on first call, so a cell loads
only its own figure's module (a metro cell loads no figure module, fuzz,
Wi-Fi or explicit-scheme module).  The summary, called as
``summary(built, **summary_args)``, may register ``Scenario.every`` probes,
runs the scenario for ``built.spec.duration`` and returns the cell's
picklable result."""

SUMMARIES = {
    "single_bottleneck": "repro.experiments.runner:single_bottleneck_summary",
    "timeseries": "repro.experiments.timeseries:timeseries_summary",
    "fairness": "repro.experiments.fairness:fairness_summary",
    "rate_prediction": "repro.experiments.wifi_eval:rate_prediction_summary",
    "wifi": "repro.experiments.wifi_eval:wifi_summary",
    "fig6": "repro.experiments.coexistence:fig6_summary",
    "coexistence": "repro.experiments.coexistence:coexistence_summary",
    "app_limited": "repro.experiments.coexistence:app_limited_summary",
    "metro": "repro.metro.cell:metro_summary",
    "fuzz": "repro.fuzz.campaign:fuzz_summary",
}
