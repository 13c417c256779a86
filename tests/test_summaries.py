"""The one job function: every grid cell is a spec plus a named summary.

* every summary in ``SUMMARIES`` has a short cell here, and adding a probe
  that only reads ``env.now`` leaves its result float-identical (the first
  inert-addition relation: an observer that is off adds nothing);
* a figure cell's spec, read back from the ``figure`` run manifest, replays
  to the same result through ``spec_cell``, and every shrinker candidate of
  it validates, builds and runs.
"""

from __future__ import annotations

import json
from pkgutil import resolve_name

import pytest

from repro.experiments.coexistence import (app_limited_spec, fig6_spec,
                                           shared_bottleneck_spec)
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.runner import single_bottleneck_spec
from repro.experiments.scenario_spec import (FlowSpec, LinkSpec,
                                             ScenarioSpec, build, spec_cell)
from repro.experiments.summaries import SUMMARIES
from repro.experiments.wifi_eval import rate_prediction_spec, wifi_case_spec
from repro.fuzz.generator import ScenarioGen
from repro.fuzz.shrink import _candidates
from repro.metro.spec import MetroSpec
from repro.runtime.cache import stable_hash
from repro.runtime.executor import SweepExecutor
from tests.conftest import shrunk

MIX = "abc:0.5,cubic:0.5"
SQUARE = LinkSpec("square", {"low_bps": 6e6, "high_bps": 12e6,
                             "half_period": 0.25})

#: Summary name → (a short spec, its summary arguments).
SUMMARY_CELLS = {
    "single_bottleneck": (lambda: single_bottleneck_spec(
        "abc", 12e6, rtt=0.05, duration=1.0), {"warmup": 0.2}),
    "timeseries": (lambda: single_bottleneck_spec(
        "cubic", SQUARE, rtt=0.05, duration=1.0), {"bin_size": 0.25}),
    "fairness": (lambda: ScenarioSpec(
        scheme="abc", duration=1.5, links=[LinkSpec("constant",
                                                    {"rate_bps": 12e6})],
        flows=[FlowSpec(rtt=0.05), FlowSpec(rtt=0.05, start_time=0.5)]),
        {"t0": 0.5}),
    "rate_prediction": (lambda: rate_prediction_spec(
        5, 0.6, duration=1.0, seed=1), {}),
    "wifi": (lambda: wifi_case_spec(
        "abc", 1, duration=1.0, rtt=0.04, mcs_mode="alternating", seed=2),
        {}),
    "fig6": (lambda: fig6_spec(6.0, wired_mbps=12.0, rtt=0.1,
                               cross_schedule=[(2.0, 4.0)]),
             {"sample_interval": 0.5}),
    "coexistence": (lambda: shared_bottleneck_spec(
        12.0, 2.0, 0.05, n_abc=1, n_cubic=1, short_flow_load=0.2,
        warmup=0.5, seed=3), {"warmup": 0.5}),
    "app_limited": (lambda: app_limited_spec(3, 0.5, duration=1.5,
                                             rtt=0.05, seed=1), {}),
    "metro": (lambda: MetroSpec(schemes=[MIX], traces={}, duration=1.5,
                                arrival_rate=3.0).cell_spec(
                                    MIX, "cell-x", 8e6, 1),
              {"mix": MIX, "seed": 1, "warmup": 0.5}),
    "fuzz": (lambda: ScenarioGen(seed=0).sample(0),
             {"check_determinism": True}),
}


def test_every_summary_has_a_cell():
    assert set(SUMMARY_CELLS) == set(SUMMARIES)


@pytest.mark.parametrize("summary", sorted(SUMMARY_CELLS))
def test_a_probe_that_reads_the_clock_changes_no_summary(summary):
    """Item 7's first inert addition, over every summary."""
    spec, args = SUMMARY_CELLS[summary]
    encoded = spec().to_jsonable()
    plain = spec_cell(encoded, summary, **args)

    built = build(ScenarioSpec.from_jsonable(encoded))
    env, reads = built.scenario.env, []
    built.scenario.every(0.01, lambda now: reads.append(env.now))
    probed = resolve_name(SUMMARIES[summary])(built, **args)
    assert len(reads) > 50
    assert stable_hash(probed) == stable_hash(plain)


def test_a_figure_cell_replays_from_its_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path))
    result = run_figure(shrunk(FIGURES["fig06"], duration=4.0),
                        SweepExecutor(jobs=1))["fig6"]
    (manifest,) = tmp_path.glob("figure-*.json")
    (cell,) = json.loads(manifest.read_text())["spec"]["cells"]
    assert cell["summary"] == "fig6"
    assert stable_hash(spec_cell(**cell)) == stable_hash(result)

    spec = ScenarioSpec.from_jsonable(cell["spec"])
    variants = list(_candidates(spec))
    assert len(variants) >= 3
    for variant in variants:
        variant.validate()
        build(variant).scenario.run(variant.duration)
