"""The summaries a ``spec_cell`` job names.  ``SUMMARIES[name](built,
**summary_args)`` may register ``Scenario.every`` probes, runs the scenario
for ``built.spec.duration`` and returns the cell's picklable result."""

from __future__ import annotations

from repro.experiments.coexistence import (app_limited_summary,
                                           coexistence_summary, fig6_summary)
from repro.experiments.runner import single_bottleneck_summary
from repro.experiments.timeseries import timeseries_summary
from repro.experiments.wifi_eval import rate_prediction_summary, wifi_summary
from repro.fuzz.campaign import fuzz_summary
from repro.metro.cell import metro_summary

SUMMARIES = {
    "single_bottleneck": single_bottleneck_summary,
    "timeseries": timeseries_summary,
    "rate_prediction": rate_prediction_summary,
    "wifi": wifi_summary,
    "fig6": fig6_summary,
    "coexistence": coexistence_summary,
    "app_limited": app_limited_summary,
    "metro": metro_summary,
    "fuzz": fuzz_summary,
}
