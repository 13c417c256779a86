"""Tests for the experiment harness modules (reduced-size runs)."""

import importlib
import inspect
import json
import math
import pkgutil

import numpy as np
import pytest

from repro import experiments
from repro.experiments import (coexistence, fairness, feedback, pareto,
                               stability_eval, timeseries, wifi_eval)
from repro.experiments.runner import (normalized_table, run_cellular_sweep,
                                      sweep_averages)
from repro.experiments.scenario_spec import (FlowSpec, LinkSpec, ScenarioSpec,
                                             build, spec_cell)
from repro.experiments.timeseries import fig17_square_wave, summarize_timeseries
from repro.experiments.fairness import fig3_fairness
from repro.experiments.wifi_eval import fig4_inter_ack, fig5_rate_prediction, fig10_wifi
from repro.experiments.coexistence import (fig6_nonabc_bottleneck,
                                           fig12_offered_load_sweep,
                                           fig13_app_limited)
from repro.experiments.pareto import fig8_pareto
from repro.cellular.synthetic import synthetic_trace_set
from repro.runtime.executor import SweepExecutor


# ------------------------------------------------------------ runner
def _one_flow(scheme: str) -> ScenarioSpec:
    return ScenarioSpec(scheme=scheme, duration=1.0, flows=[FlowSpec()],
                        links=[LinkSpec("constant", {"rate_bps": 10e6},
                                        buffer_packets=100)])


def test_build_scheme_known_and_unknown():
    built = build(_one_flow("cubic+codel"))
    assert built.flows[0].cc.name == "cubic"
    assert type(built.scenario.links[0].qdisc).__name__ == "CoDelQdisc"
    with pytest.raises(KeyError):
        build(_one_flow("not-a-scheme"))


def test_build_abc_uses_abc_router():
    built = build(_one_flow("abc"))
    assert built.flows[0].cc.uses_abc
    assert type(built.scenario.links[0].qdisc).__name__ == "ABCRouterQdisc"


def test_sweep_and_normalized_table(short_trace):
    traces = {"t1": short_trace}
    sweep = run_cellular_sweep(["abc", "cubic"], traces, duration=5.0)
    rows = sweep_averages(sweep)
    assert {row["scheme"] for row in rows} == {"abc", "cubic"}
    table = normalized_table(rows, reference="abc")
    abc_row = next(r for r in table if r["scheme"] == "abc")
    assert abc_row["norm_throughput"] == pytest.approx(1.0)
    assert abc_row["norm_delay_p95"] == pytest.approx(1.0)
    cubic_row = next(r for r in table if r["scheme"] == "cubic")
    assert cubic_row["norm_delay_p95"] > 1.0


def test_normalized_table_requires_reference():
    with pytest.raises(KeyError):
        normalized_table([{"scheme": "cubic", "utilization": 1, "delay_p95_ms": 1}])


# ------------------------------------------------------------ timeseries
def test_fig17_square_wave_shapes():
    series = fig17_square_wave(schemes=("abc", "rcp"), duration=5.0)
    assert set(series) == {"abc", "rcp"}
    rows = summarize_timeseries(series)
    abc_row = next(r for r in rows if r["scheme"] == "abc")
    rcp_row = next(r for r in rows if r["scheme"] == "rcp")
    assert abc_row["utilization"] > rcp_row["utilization"]
    assert len(series["abc"].times) == len(series["abc"].throughput_bps)


# ------------------------------------------------------------ fairness
def test_fig3_additive_increase_restores_fairness():
    without = fig3_fairness(additive_increase=False, num_flows=3, stagger=8.0)
    with_ai = fig3_fairness(additive_increase=True, num_flows=3, stagger=8.0)
    assert with_ai.steady_state_jain > 0.9
    assert with_ai.steady_state_jain > without.steady_state_jain
    assert len(with_ai.per_flow_mbps) == 3


# ------------------------------------------------------------ WiFi
def test_fig4_slope_matches_frame_time():
    samples = fig4_inter_ack(mcs_index=5, duration=10.0)
    assert samples.batch_sizes.size > 10
    assert samples.fitted_slope_ms_per_frame == pytest.approx(
        samples.expected_slope_ms_per_frame, rel=0.3)


def test_fig5_prediction_accurate_at_moderate_load():
    points = fig5_rate_prediction(mcs_indices=(5,), load_fractions=(0.5, 0.8),
                                  duration=8.0)
    assert all(p.relative_error < 0.08 for p in points)
    # The capped estimate never exceeds twice the offered load (plus noise).
    for p in points:
        assert p.capped_prediction_mbps <= 2.2 * p.offered_load_mbps


def test_fig10_wifi_abc_on_pareto_frontier():
    rows = fig10_wifi(num_users=1, duration=12.0,
                      abc_delay_thresholds=(0.06,),
                      baselines=("cubic+codel", "cubic"))
    by_name = {r.scheme: r for r in rows}
    abc = by_name["abc_dt60"]
    codel = by_name["cubic+codel"]
    cubic = by_name["cubic"]
    assert abc.throughput_mbps > codel.throughput_mbps
    assert abc.delay_p95_ms < cubic.delay_p95_ms


# ------------------------------------------------------------ coexistence
def test_fig6_abc_tracks_bottleneck_shifts():
    trace = fig6_nonabc_bottleneck(duration=30.0)
    assert trace.tracking_error < 0.25
    # The cubic window stays within its cap whenever the wireless link is the
    # bottleneck (w_cubic finite, bounded well below the buffer size).
    assert trace.w_cubic.max() < 2000
    assert trace.queuing_delay_ms.max() < 1000


def test_fig12_maxmin_fairer_than_zombie():
    loads = (0.25,)
    maxmin = fig12_offered_load_sweep(loads=loads, strategy="maxmin",
                                      duration=25.0)
    zombie = fig12_offered_load_sweep(loads=loads, strategy="zombie",
                                      duration=25.0)
    assert abs(maxmin[0.25].throughput_gap) < abs(zombie[0.25].throughput_gap)
    # ABC keeps low queuing delay even while Cubic builds a large queue.
    assert maxmin[0.25].abc_queuing_p95_ms < maxmin[0.25].cubic_queuing_p95_ms


def test_fig13_app_limited_flows_do_not_hurt_utilization():
    result = fig13_app_limited(num_app_limited=10, duration=12.0)
    assert result.utilization > 0.6
    assert result.queuing_p95_ms < 300.0
    assert result.app_limited_aggregate_mbps == pytest.approx(1.0, rel=0.3)
    assert result.backlogged_throughput_mbps > result.app_limited_aggregate_mbps


# ------------------------------------ seed axis on the in-process figures
def test_fig6_single_seed_is_bit_identical_to_cell():
    from repro.experiments.coexistence import fig6_spec
    from repro.experiments.scenario_spec import spec_cell
    routed = fig6_nonabc_bottleneck(duration=12.0)
    direct = spec_cell(fig6_spec(12.0, wired_mbps=12.0, rtt=0.1).to_jsonable(),
                       "fig6", sample_interval=0.25)
    assert routed.tracking_error == direct.tracking_error
    assert (routed.throughput_mbps == direct.throughput_mbps).all()
    assert (routed.w_abc == direct.w_abc).all()


def test_fig13_multi_seed_aggregates_distinct_traces():
    from repro.analysis.stats import SeedResultSet
    from repro.experiments.coexistence import app_limited_spec
    from repro.experiments.scenario_spec import spec_cell
    multi = fig13_app_limited(num_app_limited=5, duration=8.0, seeds=[1, 2])
    assert isinstance(multi, SeedResultSet)
    per_seed = [spec_cell(app_limited_spec(
        num_app_limited=5, aggregate_app_rate_mbps=1.0, duration=8.0,
        rtt=0.1, seed=s).to_jsonable(), "app_limited") for s in (1, 2)]
    expected = (per_seed[0].utilization + per_seed[1].utilization) / 2
    assert multi.utilization == pytest.approx(expected)
    # Different seeds regenerate the synthetic trace, so the per-seed
    # observations genuinely differ.
    assert per_seed[0].utilization != per_seed[1].utilization


def test_fig13_single_seed_matches_legacy():
    from repro.experiments.coexistence import AppLimitedResult
    result = fig13_app_limited(num_app_limited=5, duration=8.0)
    assert isinstance(result, AppLimitedResult)


# ------------------------------------------------------------ pareto
def test_fig8_abc_outside_prior_frontier():
    panels = fig8_pareto(schemes=("abc", "cubic", "cubic+codel", "bbr", "vegas"),
                         duration=12.0)
    assert set(panels) == {"downlink", "uplink", "uplink+downlink"}
    downlink = panels["downlink"]
    assert len(downlink.points) == 5
    assert downlink.abc_outside_frontier()
    assert not math.isnan(downlink.points[0].delay_p95_ms)


# ------------------------------------------- every figure runs on its executor
#: Every public figure entry point that runs cells, with short arguments.
FIGURE_ENTRY_POINTS = {
    "fig1_timeseries": (timeseries.fig1_timeseries,
                        dict(schemes=("abc",), duration=2.0)),
    "fig2_feedback": (feedback.fig2_feedback, dict(duration=2.0)),
    "fig3_fairness": (fairness.fig3_fairness,
                      dict(additive_increase=True, num_flows=2, stagger=1.0)),
    "fig5_rate_prediction": (wifi_eval.fig5_rate_prediction,
                             dict(mcs_indices=(5,), load_fractions=(0.5,),
                                  duration=1.0)),
    "fig6_nonabc_bottleneck": (coexistence.fig6_nonabc_bottleneck,
                               dict(duration=2.0)),
    "fig7_coexistence_timeseries": (coexistence.fig7_coexistence_timeseries,
                                    dict(duration=2.0, stagger=0.5)),
    "fig8_pareto": (pareto.fig8_pareto, dict(schemes=("abc",), duration=2.0)),
    "fig9_sweep": (pareto.fig9_sweep,
                   dict(schemes=("abc",), duration=2.0,
                        trace_names=["Verizon-LTE-1"])),
    "fig10_wifi": (wifi_eval.fig10_wifi,
                   dict(duration=1.0, abc_delay_thresholds=(0.06,),
                        baselines=())),
    "fig11_cross_traffic": (coexistence.fig11_cross_traffic,
                            dict(duration=3.0)),
    "fig12_offered_load_sweep": (coexistence.fig12_offered_load_sweep,
                                 dict(loads=(0.25,), duration=2.0)),
    "fig13_app_limited": (coexistence.fig13_app_limited,
                          dict(num_app_limited=3, duration=2.0)),
    "fig14_wifi_brownian": (wifi_eval.fig14_wifi_brownian,
                            dict(duration=0.5)),
    "fig16_explicit": (pareto.fig16_explicit,
                       dict(duration=1.0, trace_names=["Verizon-LTE-1"])),
    "fig17_square_wave": (timeseries.fig17_square_wave,
                          dict(schemes=("abc",), duration=1.0)),
    "fig18_rtt_sensitivity": (pareto.fig18_rtt_sensitivity,
                              dict(schemes=("abc",), rtts=(0.05,),
                                   duration=2.0)),
    "jain_index_sweep": (fairness.jain_index_sweep,
                         dict(flow_counts=(2,), duration=2.0, warmup=1.0)),
    "packet_level_stability": (stability_eval.packet_level_stability,
                               dict(delta_values=(0.133,), duration=1.0)),
    "pk_abc_comparison": (feedback.pk_abc_comparison, dict(duration=2.0)),
}

#: The entry points that ran in-process, off the executor, until they became
#: spec cells: each must leave a complete ``figure`` manifest.
FORMERLY_IN_PROCESS = ("fig2_feedback", "fig3_fairness", "jain_index_sweep",
                       "packet_level_stability", "pk_abc_comparison")


def test_every_figure_entry_point_is_listed():
    """Fig. 4's probe is the one figure that runs no cells (a figure's
    ``*_spec`` / ``*_summary`` describe and measure one cell)."""
    figures = set()
    for info in pkgutil.iter_modules(experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        figures |= {name for name, obj in vars(module).items()
                    if name.startswith("fig") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.endswith(("_spec", "_summary"))}
    assert figures - {"fig4_inter_ack"} <= set(FIGURE_ENTRY_POINTS)


@pytest.mark.parametrize("name", sorted(FIGURE_ENTRY_POINTS))
def test_figure_entry_point_runs_on_the_given_executor(name):
    func, kwargs = FIGURE_ENTRY_POINTS[name]
    executor = SweepExecutor(jobs=1)
    func(executor=executor, **kwargs)
    assert executor.last_stats.total > 0


@pytest.mark.parametrize("name", FORMERLY_IN_PROCESS)
def test_figure_writes_one_manifest_and_replays_from_the_cache(
        name, tmp_path, monkeypatch):
    func, kwargs = FIGURE_ENTRY_POINTS[name]
    runs = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUN_DIR", str(runs))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    first = SweepExecutor(jobs=1)
    func(executor=first, **kwargs)
    (manifest,) = runs.glob("figure-*.json")
    cells = json.loads(manifest.read_text())["spec"]["cells"]
    assert len(cells) == first.last_stats.total
    assert all(cell is not None for cell in cells)

    again = SweepExecutor(jobs=1)
    func(executor=again, **kwargs)
    assert again.last_stats.executed == 0
    assert again.last_stats.cache_hits == first.last_stats.total


def test_a_fig3_cell_replays_from_its_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path))
    result = fairness.fig3_fairness(False, num_flows=3, stagger=1.0,
                                    executor=SweepExecutor(jobs=1))
    (manifest,) = tmp_path.glob("figure-*.json")
    (cell,) = json.loads(manifest.read_text())["spec"]["cells"]
    assert cell["summary"] == "fairness"
    replay = spec_cell(**cell)
    assert [t / 1e6 for t in replay.throughputs_bps] \
        == result.steady_state_throughputs_mbps
    assert np.array_equal(replay.times, result.times)
    for index, tput in enumerate(replay.per_flow_bps):
        assert np.array_equal(tput / 1e6, result.per_flow_mbps[index])
