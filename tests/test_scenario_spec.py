"""The one scenario description (``repro.experiments.scenario_spec``).

Every cell that builds through ``build`` must describe its run completely:
its spec survives ``to_jsonable`` → JSON → ``from_jsonable`` unchanged and
builds a run with the same result.  The ``link_spec`` values convert
through the one converter, and a result that names its link names it the
same way every run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cellular.synthetic import synthetic_trace_set
from repro.experiments import coexistence, runner, scenario_spec, wifi_eval
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.scenario_spec import (LinkSpec, ScenarioSpec, build,
                                             link_spec_from, spec_cell)
from repro.fuzz.generator import ScenarioGen
from repro.fuzz.invariants import scenario_summary
from repro.fuzz.shrink import load_corpus_entry
from repro.metro.spec import DEFAULT_MIX, MetroSpec, metro_pack
from repro.runtime.executor import SweepExecutor
from repro.runtime.trace_store import register_trace
from tests.conftest import shrunk

from test_path_golden import metro_cell

CORPUS = sorted((Path(__file__).parent / "data" / "fuzz_corpus").glob("*.json"))
TRACE = synthetic_trace_set(duration=3.0, seed=2, names=["Verizon-LTE-1"])[
    "Verizon-LTE-1"]
MIX = "abc:0.5,cubic:0.3,bbr:0.2"


def _round_trip(spec: ScenarioSpec) -> ScenarioSpec:
    return ScenarioSpec.from_jsonable(json.loads(json.dumps(spec.to_jsonable())))


def _single(scheme, link_spec, **kwargs):
    """One ``single_bottleneck`` cell, run in this process."""
    return spec_cell(runner.single_bottleneck_spec(
        scheme, link_spec, **kwargs).to_jsonable(), "single_bottleneck")


def _run(spec: ScenarioSpec) -> dict:
    built = build(spec)
    built.scenario.run(spec.duration)
    return scenario_summary(built)


#: One short run of every rewired cell, by the figure it serves.
CELLS = {
    "single-bottleneck": lambda: _single(
        "cubic+pie", TRACE, duration=2.0, extra_links=(9e6,), seed=3),
    "single-bottleneck-models": lambda: [_single(
        "abc", LinkSpec(kind, params), duration=1.5) for kind, params in (
            ("constant", {"rate_bps": 6e6}),
            ("square", {"low_bps": 4e6, "high_bps": 9e6, "half_period": 0.5,
                        "start_low": True}),
            ("stepped", {"steps": [[0.0, 5e6], [1.0, 8e6]]}))],
    "fig11": lambda: spec_cell(coexistence.fig6_spec(
        6.0, wired_mbps=12.0, rtt=0.1,
        cross_schedule=[(2.0, 4.0), (4.0 + 1e-9, 6.0)]).to_jsonable(),
        "fig6", sample_interval=0.5),
    "fig7": lambda: spec_cell(coexistence.shared_bottleneck_spec(
        24.0, 4.0, 0.1, n_abc=2, n_cubic=2, abc_starts=(0.0, 1.0),
        cubic_starts=(2.0, 3.0)).to_jsonable(), "coexistence", warmup=3.0),
    "fig12-zombie": lambda: spec_cell(coexistence.shared_bottleneck_spec(
        24.0, 4.0, 0.1, n_abc=1, n_cubic=1, strategy="zombie",
        short_flow_load=0.25, warmup=1.0).to_jsonable(), "coexistence",
        warmup=1.0),
    "fig13": lambda: spec_cell(coexistence.app_limited_spec(
        num_app_limited=5, aggregate_app_rate_mbps=1.0, duration=3.0,
        rtt=0.1, seed=23).to_jsonable(), "app_limited"),
    "fig5": lambda: spec_cell(wifi_eval.rate_prediction_spec(
        5, 0.6, duration=1.5, seed=1).to_jsonable(), "rate_prediction"),
    "fig14": lambda: spec_cell(wifi_eval.wifi_case_spec(
        "abc", 2, duration=1.5, rtt=0.04, mcs_mode="brownian", seed=3,
        abc_delay_threshold=0.02).to_jsonable(), "wifi"),
    "fig3": lambda: run_figure(shrunk(FIGURES["fig03"], duration=3.0,
                                      keys=(False,)), SweepExecutor(jobs=1)),
    "jain": lambda: run_figure(shrunk(FIGURES["jain"], duration=2.0,
                                      keys=(2,)), SweepExecutor(jobs=1)),
    "metro-square": lambda: metro_cell(MIX, "cell-a", LinkSpec("square", {
        "low_bps": 4e6, "high_bps": 9e6, "half_period": 0.5}),
                                       seed=1, duration=3.0),
    "metro-trace-ref": lambda: metro_cell(MIX, "cell-b", register_trace(TRACE),
                                          seed=2, duration=3.0),
}


@pytest.fixture
def built_specs(monkeypatch):
    """Every spec the code under test hands to ``build``."""
    specs = []
    real_build = scenario_spec.build

    def recording(spec):
        specs.append(spec)
        return real_build(spec)

    monkeypatch.setattr(scenario_spec, "build", recording)
    return specs


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_every_rewired_cell_spec_round_trips(cell, built_specs):
    CELLS[cell]()
    assert built_specs
    for spec in built_specs:
        again = _round_trip(spec)
        assert again == spec
        assert _run(again) == _run(spec)


def test_fuzz_specs_round_trip():
    city = metro_pack(2, duration=1.0)
    specs = ScenarioGen(seed=6).sample_many(4) + [
        city.cell_spec(DEFAULT_MIX, name, link, 5)
        for name, link in city.traces.items()]
    for spec in specs:
        assert _round_trip(spec) == spec
        assert _run(_round_trip(spec)) == _run(spec)


@pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
def test_corpus_entries_load_and_rebuild_unchanged(path):
    """Corpus entries predate every figure-only field: they still load,
    re-encode without those fields and replay their pinned summary."""
    entry = load_corpus_entry(path)
    spec = ScenarioSpec.from_jsonable(entry["scenario"])
    encoded = spec.to_jsonable()
    assert {k: v for k, v in encoded.items() if k != "flows"} == {
        k: v for k, v in entry["scenario"].items() if k != "flows"}
    assert _round_trip(spec) == spec
    if entry["expect"].get("clean"):
        assert _run(_round_trip(spec)) == entry["expect"]["summary"]


def test_legacy_link_specs_convert():
    ref = register_trace(TRACE)
    assert link_spec_from(ref) == link_spec_from(TRACE)
    assert link_spec_from(TRACE).kind == "trace_ref"
    assert link_spec_from(TRACE).params == {"key": ref.key,
                                            "name": "Verizon-LTE-1"}
    assert link_spec_from(12e6).params == {"rate_bps": 12e6}
    square = LinkSpec("square", {"low_bps": 4e6, "high_bps": 9e6,
                                 "half_period": 0.5})
    assert link_spec_from(square, name="cell") == LinkSpec(
        "square", square.params, name="cell")
    with pytest.raises(TypeError):
        link_spec_from(object())


def test_single_bottleneck_trace_label_is_deterministic():
    stepped = LinkSpec("stepped", {"steps": [[0.0, 6e6]]})
    labels = [_single("abc", stepped, duration=1.0).trace for _ in range(2)]
    assert labels[0] == labels[1]
    assert "0x" not in labels[0]
    assert _single("abc", 6e6, duration=1.0).trace == str(6e6)
    assert _single("abc", TRACE, duration=1.0).trace == TRACE.name


def test_metro_per_flow_throughputs_cover_the_measured_window():
    (job,) = MetroSpec(schemes=[MIX], traces={"cell-w": 8e6}, seeds=(4,),
                       duration=4.0, arrival_rate=3.0).expand()[1]
    cell = spec_cell(**{**job.kwargs, "warmup": 2.0})
    per_flow = (sum(cell["base_throughputs_bps"])
                + sum(cell["churn_throughputs_bps"]))
    assert per_flow == pytest.approx(cell["throughput_bps"], rel=1e-9)
