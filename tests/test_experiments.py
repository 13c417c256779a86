"""Tests for the experiment harness: the runner, the ``FIGURES`` rows'
contract, and the paper's claims on shrunk rows."""

import json
import math

import pytest

from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.runner import (normalized_table, run_cellular_sweep,
                                      run_seed_grid, sweep_averages)
from repro.experiments.scenario_spec import (FlowSpec, LinkSpec, ScenarioSpec,
                                             build, spec_cell)
from repro.experiments.summaries import SUMMARIES
from repro.experiments.wifi_eval import fig4_inter_ack, fig10_wifi
from repro.runtime.executor import SweepExecutor
from tests.conftest import KeyRecorder, shrunk


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


def _run(figure, **shrink) -> dict:
    """A ``FIGURES`` row, shrunk by ``shrink``, run in-process."""
    return run_figure(shrunk(figure, **shrink), SweepExecutor(jobs=1))


def _abc_outside_frontier(points: dict) -> bool:
    from repro.analysis.metrics import is_outside_frontier, pareto_frontier
    frontier = pareto_frontier((scheme, r.delay_p95_ms, r.utilization)
                               for scheme, r in points.items()
                               if scheme != "abc")
    abc = points["abc"]
    return is_outside_frontier((abc.delay_p95_ms, abc.utilization),
                               [(delay, util) for _, delay, util in frontier])


# ------------------------------------------------------------ timeseries
def test_fig17_abc_tracks_the_square_wave_better_than_rcp():
    series = _run(FIGURES["fig17"], duration=5.0, keys=("abc", "rcp"))
    assert set(series) == {"abc", "rcp"}
    assert series["abc"].utilization > series["rcp"].utilization
    assert len(series["abc"].times) == len(series["abc"].throughput_bps)


# ------------------------------------------------------------ fairness
def test_fig3_additive_increase_restores_fairness():
    """Five flows start 12 s apart (the card's row, unshrunk: its
    measurement starts once the last flow has arrived)."""
    from repro.analysis.fairness import jain_fairness_index
    cells = _run(FIGURES["fig03"], duration=72.0)
    jain = {ai: jain_fairness_index([max(t, 1e-9)
                                     for t in cells[ai].throughputs_bps])
            for ai in (False, True)}
    assert jain[True] > 0.9
    assert jain[True] > jain[False]
    assert len(cells[True].per_flow_bps) == 5


# ------------------------------------------------------------ WiFi
def test_fig4_slope_matches_frame_time():
    samples = fig4_inter_ack(mcs_index=5, duration=10.0)
    assert samples.batch_sizes.size > 10
    assert samples.fitted_slope_ms_per_frame == pytest.approx(
        samples.expected_slope_ms_per_frame, rel=0.3)


def test_fig5_prediction_accurate_at_moderate_load():
    points = _run(FIGURES["fig05"], duration=8.0,
                  keys=((5, 0.6), (5, 0.8))).values()
    assert all(p.relative_error < 0.08 for p in points)
    # The capped estimate never exceeds twice the offered load (plus noise).
    for p in points:
        assert p.capped_prediction_mbps <= 2.2 * p.offered_load_mbps


def test_fig10_wifi_abc_on_pareto_frontier():
    rows = _run(FIGURES["fig10"], duration=12.0, keys=(
        (1, "abc_dt60"), (1, "cubic+codel"), (1, "cubic")))
    abc, codel, cubic = (rows[1, name]
                         for name in ("abc_dt60", "cubic+codel", "cubic"))
    assert abc.throughput_mbps > codel.throughput_mbps
    assert abc.delay_p95_ms < cubic.delay_p95_ms


def test_fig10_wifi_shares_its_cells_with_the_row():
    """The ledger's ``fig10_wifi`` runs the ``fig10`` row's cells and names
    its ABC rows after them."""
    rows = fig10_wifi(num_users=2, duration=1.0, abc_delay_thresholds=(0.06,),
                      baselines=("cubic",), executor=SweepExecutor(jobs=1))
    cells = _run(FIGURES["fig10"], duration=1.0,
                 keys=((2, "abc_dt60"), (2, "cubic")))
    assert [row.scheme for row in rows] == ["abc_dt60", "cubic"]
    assert [(row.throughput_mbps, row.delay_p95_ms) for row in rows] == [
        (cell.throughput_mbps, cell.delay_p95_ms) for cell in cells.values()]


# ------------------------------------------------------------ coexistence
def test_fig6_abc_tracks_bottleneck_shifts():
    trace = _run(FIGURES["fig06"], duration=30.0)["fig6"]
    assert trace.tracking_error < 0.25
    # The cubic window stays within its cap whenever the wireless link is the
    # bottleneck (w_cubic finite, bounded well below the buffer size).
    assert trace.w_cubic.max() < 2000
    assert trace.queuing_delay_ms.max() < 1000


def test_fig12_maxmin_fairer_than_zombie():
    cells = _run(FIGURES["fig12"], duration=25.0,
                 keys=(("maxmin", 0.25), ("zombie", 0.25)))
    maxmin, zombie = cells["maxmin", 0.25], cells["zombie", 0.25]
    assert abs(maxmin.throughput_gap) < abs(zombie.throughput_gap)
    # ABC keeps low queuing delay even while Cubic builds a large queue.
    assert maxmin.abc_queuing_p95_ms < maxmin.cubic_queuing_p95_ms


def test_fig13_application_limited_flows_do_not_hurt_utilization():
    result = _run(FIGURES["fig13"], duration=12.0)["fig13"]
    assert result.utilization > 0.6
    assert result.queuing_p95_ms < 300.0
    assert result.app_limited_aggregate_mbps == pytest.approx(1.0, rel=0.3)
    assert result.backlogged_throughput_mbps > result.app_limited_aggregate_mbps


def test_fig6_single_seed_is_bit_identical_to_cell():
    from repro.experiments.coexistence import fig6_spec
    routed = _run(FIGURES["fig06"], duration=12.0)["fig6"]
    direct = spec_cell(fig6_spec(12.0, wired_mbps=12.0, rtt=0.1).to_jsonable(),
                       "fig6", sample_interval=0.25)
    assert routed.tracking_error == direct.tracking_error
    assert (routed.throughput_mbps == direct.throughput_mbps).all()
    assert (routed.w_abc == direct.w_abc).all()


def test_fig13_multi_seed_aggregates_distinct_traces(monkeypatch):
    from repro.analysis.stats import SeedResultSet
    from repro.experiments.coexistence import app_limited_spec
    monkeypatch.setenv("REPRO_SEEDS", "1,2")
    multi = _run(FIGURES["fig13"], duration=8.0)["fig13"]
    assert isinstance(multi, SeedResultSet)
    per_seed = [spec_cell(app_limited_spec(
        num_app_limited=30, aggregate_app_rate_mbps=1.0, duration=8.0,
        rtt=0.1, seed=s).to_jsonable(), "app_limited") for s in (1, 2)]
    expected = (per_seed[0].utilization + per_seed[1].utilization) / 2
    assert multi.utilization == pytest.approx(expected)
    # Different seeds regenerate the synthetic trace, so the per-seed
    # observations genuinely differ.
    assert per_seed[0].utilization != per_seed[1].utilization


def test_fig13_single_seed_matches_legacy(monkeypatch):
    from repro.experiments.coexistence import AppLimitedResult
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    result = _run(FIGURES["fig13"], duration=2.0)["fig13"]
    assert isinstance(result, AppLimitedResult)


# ------------------------------------------------------------ pareto
def test_fig8_abc_outside_prior_frontier():
    schemes = ("abc", "cubic", "cubic+codel", "bbr", "vegas")
    cells = _run(FIGURES["fig08"], duration=12.0,
                 keys=[("downlink", scheme) for scheme in schemes])
    downlink = {scheme: r for (_, scheme), r in cells.items()}
    assert len(downlink) == 5
    assert _abc_outside_frontier(downlink)
    assert not math.isnan(downlink["abc"].delay_p95_ms)


# ---------------------------------------------- every row keeps its contract
def test_every_figure_entry_point_is_listed():
    """A figure is a ``FIGURES`` row, not a function: the ``fig*``
    functions left are Fig. 4's probe, which runs no cells, and the two the
    ledger calls (each sharing its job builder with its row).  A figure's
    ``*_spec`` / ``*_summary`` / ``*_job`` describe and measure one cell."""
    import importlib
    import inspect
    import pkgutil

    from repro import experiments
    figures = set()
    for info in pkgutil.iter_modules(experiments.__path__):
        module = importlib.import_module(f"repro.experiments.{info.name}")
        figures |= {name for name, obj in vars(module).items()
                    if name.startswith("fig") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.endswith(("_spec", "_summary", "_job"))}
    assert figures == {"fig4_inter_ack", "fig7_coexistence_timeseries",
                       "fig10_wifi"}


#: Every ``FIGURES`` row under the case id it has always had in the
#: per-row tests below: the name of the entry point it replaced (Fig. 15
#: and Table 1 were re-runs of Fig. 9's and keep their row id).
ROW_CASES = {
    "fig1_timeseries": "fig01", "fig2_feedback": "fig02",
    "fig3_fairness": "fig03", "fig5_rate_prediction": "fig05",
    "fig6_nonabc_bottleneck": "fig06",
    "fig7_coexistence_timeseries": "fig07", "fig8_pareto": "fig08",
    "fig9_sweep": "fig09", "fig10_wifi": "fig10",
    "fig11_cross_traffic": "fig11", "fig12_offered_load_sweep": "fig12",
    "fig13_app_limited": "fig13", "fig14_wifi_brownian": "fig14",
    "fig15": "fig15", "fig16_explicit": "fig16",
    "fig17_square_wave": "fig17", "fig18_rtt_sensitivity": "fig18",
    "jain_index_sweep": "jain", "packet_level_stability": "stability",
    "pk_abc_comparison": "pk_abc", "table1": "table1",
}


def test_every_figure_row_has_a_case():
    assert sorted(ROW_CASES.values()) == sorted(FIGURES)


@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_figure_entry_point_runs_on_the_given_executor(name, monkeypatch):
    """Every row's cells build at its default seed and name a summary, and
    ``run_figure`` hands every one of them to the executor it is given."""
    figure = FIGURES[ROW_CASES[name]]
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
    cells = figure.cells(figure.seed)
    assert cells
    for job in cells.values():
        assert job.func is spec_cell
        assert job.kwargs["summary"] in SUMMARIES
        build(ScenarioSpec.from_jsonable(job.kwargs["spec"]))
    executor = KeyRecorder()
    values = run_figure(figure, executor)
    assert list(values) == list(cells)
    assert executor.keys == [job.cache_key("salt") for job in cells.values()]


@pytest.mark.parametrize("name", sorted(ROW_CASES))
def test_figure_writes_one_manifest_and_replays_from_the_cache(
        name, tmp_path, monkeypatch):
    """A shrunk row writes one ``figure`` manifest listing every cell, and
    a second run replays every cell from the cache."""
    figure = FIGURES[ROW_CASES[name]]
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    runs = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUN_DIR", str(runs))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    keys = list(figure.cells(figure.seed))[:2]
    small = shrunk(figure, duration=1.0, keys=keys)
    first = SweepExecutor(jobs=1)
    values = run_figure(small, first)
    assert list(values) == keys
    (manifest,) = runs.glob("figure-*.json")
    spec = json.loads(manifest.read_text())["spec"]
    assert spec["seeds"] == [figure.seed]
    assert len(spec["cells"]) == first.last_stats.total == len(values)
    assert all(cell is not None for cell in spec["cells"])

    again = SweepExecutor(jobs=1)
    run_figure(small, again)
    assert again.last_stats.executed == 0
    assert again.last_stats.cache_hits == first.last_stats.total


def test_a_fig3_cell_replays_from_its_manifest(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path))
    result = _run(FIGURES["fig03"], duration=6.0, keys=(False,))[False]
    (manifest,) = tmp_path.glob("figure-*.json")
    (cell,) = json.loads(manifest.read_text())["spec"]["cells"]
    assert cell["summary"] == "fairness"
    replay = spec_cell(**cell)
    assert replay.throughputs_bps == result.throughputs_bps
    assert (replay.times == result.times).all()
    for replayed, tput in zip(replay.per_flow_bps, result.per_flow_bps):
        assert (replayed == tput).all()
