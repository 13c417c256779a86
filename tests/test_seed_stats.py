"""Tests for the multi-seed statistical sweep layer.

Four load-bearing properties:

* single-seed sweeps are bit-for-bit identical to the legacy output,
* the confidence-interval math matches hand-computed values,
* one ``run_seed_grid`` is the seed axis of every figure, and seed ``s`` of a
  multi-seed run *is* the single-seed run (same jobs, same results),
* a reused (persistent) pool returns identical results across repeated
  ``run()`` calls.
"""

from __future__ import annotations

import ast
import copy
import math
import pickle
import re
from pathlib import Path

import pytest

from repro.analysis.stats import (SeedAggregate, SeedResultSet,
                                  aggregate_metric_dicts, aggregate_values,
                                  result_metrics, t_critical_95)
from repro.cellular.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.experiments.coexistence import CoexistenceResult
from repro.experiments.figures import FIGURES, run_figure
from repro.experiments.runner import (run_cellular_sweep, run_seed_grid,
                                      sweep_averages)
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepJob
from repro.runtime.trace_store import TraceRef, get_trace, register_trace
from tests.conftest import KeyRecorder, shrunk

REPRO_SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _tiny_traces():
    config = SyntheticTraceConfig(mean_rate_bps=10e6, min_rate_bps=2e6,
                                  max_rate_bps=20e6, volatility=0.2,
                                  outage_rate_per_s=0.0, name="stats-test")
    return {
        "t1": synthetic_trace(config, duration=3.0, seed=5),
        "t2": synthetic_trace(config, duration=3.0, seed=6),
    }


def _metrics(result) -> tuple:
    return (result.scheme, result.trace, result.throughput_bps,
            result.utilization, result.delay_p95_ms, result.delay_mean_ms,
            result.queuing_p95_ms, result.queuing_mean_ms, result.drops)


# ------------------------------------------------------------------ CI math
def test_aggregate_values_hand_computed():
    """n=3 sample [1, 2, 3]: mean 2, stdev 1, CI half-width t.975(2)/sqrt(3)."""
    agg = aggregate_values([1.0, 2.0, 3.0])
    assert agg.n == 3
    assert agg.mean == 2.0
    assert agg.stdev == 1.0
    assert agg.min == 1.0 and agg.max == 3.0
    expected_hw = 4.303 * 1.0 / math.sqrt(3)
    assert agg.ci95 == pytest.approx(expected_hw, abs=1e-12)


def test_aggregate_values_two_observations():
    """n=2 sample [10, 14]: mean 12, stdev 2*sqrt(2), t.975(1) = 12.706."""
    agg = aggregate_values([10.0, 14.0])
    assert agg.mean == 12.0
    assert agg.stdev == pytest.approx(math.sqrt(8.0))
    assert agg.ci95 == pytest.approx(12.706 * math.sqrt(8.0) / math.sqrt(2))


def test_single_observation_is_exact():
    agg = aggregate_values([0.123456789])
    assert agg.n == 1
    assert agg.mean == 0.123456789       # bit-for-bit, not approximately
    assert agg.stdev == 0.0
    assert agg.ci95 == 0.0
    assert agg.min == agg.max == agg.mean


def test_t_critical_table():
    assert t_critical_95(1) == 12.706
    assert t_critical_95(30) == 2.042
    assert t_critical_95(31) == 1.96     # normal approximation beyond table
    with pytest.raises(ValueError):
        t_critical_95(0)


def test_aggregate_values_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_values([])


def test_aggregate_metric_dicts_rejects_key_mismatch():
    with pytest.raises(ValueError, match="disagree on keys"):
        aggregate_metric_dicts([{"a": 1.0}, {"b": 2.0}])


def test_seed_aggregate_format():
    agg = SeedAggregate(n=3, mean=1.5, stdev=0.1, ci95=0.25, min=1.4, max=1.6)
    assert f"{agg:.2f}" == "1.50 ± 0.25"


# --------------------------------------------------------- SeedResultSet
def test_seed_result_set_forwards_means_and_labels():
    traces = _tiny_traces()
    multi = run_cellular_sweep(["abc"], traces, duration=3.0,
                               seeds=[0, 1, 2])
    res = multi["abc"]["t1"]
    assert isinstance(res, SeedResultSet)
    assert res.seeds == (0, 1, 2)
    assert len(res) == 3
    per_seed_utils = [r.utilization for r in res.per_seed]
    assert res.utilization == pytest.approx(sum(per_seed_utils) / 3)
    assert res.agg("utilization").n == 3
    assert res.scheme == "abc"           # forwarded from first seed's result
    with pytest.raises(AttributeError):
        res.not_a_metric
    pickle.loads(pickle.dumps(res))      # survives cache/pool boundaries


def test_result_metrics_skips_non_numeric():
    traces = _tiny_traces()
    single = run_cellular_sweep(["abc"], traces, duration=3.0)
    metrics = result_metrics(single["abc"]["t1"])
    assert "utilization" in metrics and "drops" in metrics
    assert "scheme" not in metrics and "extra" not in metrics


# --------------------------------------------------- single-seed == legacy
def test_single_seed_sweep_is_bit_identical_to_legacy():
    traces = _tiny_traces()
    legacy = run_cellular_sweep(["abc", "cubic+pie"], traces, duration=3.0)
    single = run_cellular_sweep(["abc", "cubic+pie"], traces, duration=3.0,
                                seeds=[0])
    for scheme in ("abc", "cubic+pie"):
        for trace in ("t1", "t2"):
            assert _metrics(single[scheme][trace]) == _metrics(legacy[scheme][trace])


def test_fig9_single_seed_matches_legacy(monkeypatch):
    """``REPRO_SEEDS=s`` ≡ the row's default seed ``s`` bit-for-bit —
    including for cubic+pie, whose PIE qdisc consumes the per-cell seed (a
    seed moves the traces, never the cell seed 0)."""
    figure = shrunk(FIGURES["fig09"], duration=3.0, keys=[
        (scheme, "Verizon-LTE-1") for scheme in ("abc", "cubic+pie")])
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    legacy = run_figure(figure, SweepExecutor(jobs=1))
    monkeypatch.setenv("REPRO_SEEDS", str(figure.seed))
    single = run_figure(figure, SweepExecutor(jobs=1))
    assert list(single) == list(legacy)
    for key in legacy:
        assert _metrics(single[key]) == _metrics(legacy[key])


def test_sweep_averages_single_seed_rows_keep_legacy_shape():
    traces = _tiny_traces()
    rows = sweep_averages(run_cellular_sweep(["abc"], traces, duration=3.0))
    assert list(rows[0]) == ["scheme", "utilization", "delay_p95_ms",
                             "delay_mean_ms", "queuing_p95_ms",
                             "throughput_bps"]


def test_sweep_averages_multi_seed_adds_ci_columns():
    traces = _tiny_traces()
    multi = run_cellular_sweep(["abc"], traces, duration=3.0, seeds=[0, 1, 2])
    row = sweep_averages(multi)[0]
    assert row["n_seeds"] == 3
    for metric in ("utilization", "delay_p95_ms", "throughput_bps"):
        assert f"{metric}_ci95" in row
        assert f"{metric}_stdev" in row
    # Cross-trace average of across-seed means equals the reported mean.
    res = multi["abc"]
    expected = (res["t1"].utilization + res["t2"].utilization) / 2
    assert row["utilization"] == pytest.approx(expected)


# ------------------------------------------------------------ REPRO_SEEDS
def test_repro_seeds_env_routes_run_cellular_sweep(monkeypatch):
    traces = {"t1": _tiny_traces()["t1"]}
    monkeypatch.setenv("REPRO_SEEDS", "0,1")
    multi = run_cellular_sweep(["abc"], traces, duration=3.0)
    assert isinstance(multi["abc"]["t1"], SeedResultSet)
    assert multi["abc"]["t1"].seeds == (0, 1)


# ------------------------------------------------------- run_seed_grid
def _toy_cell(seed: int, index: int) -> dict:
    return {"value": 100.0 * seed + index}


def _toy_jobs(s: int) -> list:
    return [SweepJob(func=_toy_cell, kwargs=dict(seed=s, index=i),
                     label=f"seed{s}/cell{i}") for i in range(3)]


class _RecordingExecutor(SweepExecutor):
    """In-process executor that keeps what one ``run`` saw and returned
    (a copy: figures relabel and annotate the result objects they get)."""

    def __init__(self, **kwargs):
        super().__init__(jobs=1, **kwargs)

    def run(self, jobs):
        self.labels = [job.label for job in jobs]
        results = super().run(jobs)
        self.results = copy.deepcopy(results)
        return results


def test_run_seed_grid_one_seed_returns_the_cells_own_results(monkeypatch):
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    executor = _RecordingExecutor()
    values = run_seed_grid(_toy_jobs, 7, executor=executor)
    assert executor.labels == ["seed7/cell0", "seed7/cell1", "seed7/cell2"]
    assert values == [{"value": 700.0}, {"value": 701.0}, {"value": 702.0}]
    assert run_seed_grid(_toy_jobs, 7, seeds=[2], executor=executor) == [
        {"value": 200.0}, {"value": 201.0}, {"value": 202.0}]


def test_run_seed_grid_submits_seed_major_and_combines_in_grid_order():
    executor = _RecordingExecutor()
    values = run_seed_grid(_toy_jobs, 7, seeds=[1, 2], executor=executor)
    assert executor.labels == ["seed1/cell0", "seed1/cell1", "seed1/cell2",
                               "seed2/cell0", "seed2/cell1", "seed2/cell2"]
    assert all(isinstance(v, SeedResultSet) for v in values)
    assert [v.seeds for v in values] == [(1, 2)] * 3
    assert [v.per_seed for v in values] == [
        ({"value": 100.0 + i}, {"value": 200.0 + i}) for i in range(3)]
    assert [v.stats["value"].mean for v in values] == [150.0, 151.0, 152.0]


def test_run_seed_grid_reads_repro_seeds_only_without_an_argument(monkeypatch):
    monkeypatch.setenv("REPRO_SEEDS", "4,5")
    executor = _RecordingExecutor()
    values = run_seed_grid(_toy_jobs, 7, executor=executor)
    assert [v.seeds for v in values] == [(4, 5)] * 3
    run_seed_grid(_toy_jobs, 7, seeds=[9], executor=executor)
    assert executor.labels == ["seed9/cell0", "seed9/cell1", "seed9/cell2"]


def test_result_metrics_count_properties():
    """A result's properties are metrics too, so one across-seed
    aggregation covers Fig. 12's throughput gap."""
    runs = [CoexistenceResult([4.0], [5.0], 1.0, 2.0),
            CoexistenceResult([4.0], [6.0], 1.0, 2.0)]
    assert result_metrics(runs[0])["throughput_gap"] == 0.25
    assert SeedResultSet((1, 2), runs).throughput_gap == 0.375


@pytest.mark.parametrize("name", sorted(FIGURES),
                         ids=lambda name: name.replace("fig0", "fig"))
def test_every_seeded_figure_keeps_the_seed_axis_contract(name, monkeypatch):
    """Seed ``a``'s jobs are the same (same cache keys) alone or beside
    seed ``b``, seed ``b``'s are its own, and a pinned row ignores
    ``REPRO_SEEDS`` — whatever the row."""
    figure = FIGURES[name]
    monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
    n = len(figure.cells(figure.seed))

    def jobs_for_seed(s):
        return list(figure.cells(s).values())

    alone, beside = KeyRecorder(), KeyRecorder()
    run_seed_grid(jobs_for_seed, figure.seed, [3], alone)
    run_seed_grid(jobs_for_seed, figure.seed, [3, 4], beside)
    assert len(alone.keys) == n and len(beside.keys) == 2 * n
    assert beside.keys[:n] == alone.keys
    if not figure.pinned:       # a seed axis: seed b's cells are its own
        assert beside.keys[n:] != alone.keys
    monkeypatch.setenv("REPRO_SEEDS", "3,4")
    run_figure(figure, alone)
    assert len(alone.keys) == n * (1 if figure.pinned else 2)


def test_fig9_adding_a_seed_replays_the_cached_one(tmp_path, monkeypatch):
    figure = shrunk(FIGURES["fig09"], duration=2.0, keys=[
        (scheme, "Verizon-LTE-1") for scheme in ("abc", "cubic+pie")])
    executor = _RecordingExecutor(cache_dir=tmp_path / "cache")
    monkeypatch.setenv("REPRO_SEEDS", "1")
    single = run_figure(figure, executor)
    assert executor.last_stats.executed == 2
    monkeypatch.setenv("REPRO_SEEDS", "1,2")
    multi = run_figure(figure, executor)
    assert executor.last_stats.cache_hits == 2       # seed 1's two cells
    assert executor.last_stats.executed == 2         # seed 2's two cells
    for key, value in single.items():
        assert _metrics(multi[key].per_seed[0]) == _metrics(value)


def test_the_seed_axis_is_written_once():
    """``run_seed_grid`` is the one grid runner: it alone resolves a seed
    list, no second runner (``run_cells``, ``group_seed_results``) exists
    anywhere in ``src/repro/``, and no figure branches on how many seeds
    were asked for."""
    runner = REPRO_SRC / "experiments" / "runner.py"
    grid = next(node for node in ast.parse(runner.read_text()).body
                if getattr(node, "name", None) == "run_seed_grid")
    strays = {}
    for path in sorted(REPRO_SRC.rglob("*.py")):
        lines = path.read_text().splitlines()
        if path == runner:
            del lines[grid.lineno - 1:grid.end_lineno]
        text = "\n".join(lines)
        found = set(re.findall(r"(?<!def )\bresolve_seeds\(|"
                               r"\bdef (?:run_cells|group_seed_results)\b",
                               text))
        if path.parent.name == "experiments" and path != runner:
            found |= set(re.findall(
                r"\b(?:split_by_seed|multi(?= *=[^=])|cell_seed)\b", text))
        if found:
            strays[str(path.relative_to(REPRO_SRC))] = sorted(found)
    assert not strays, f"a second seed axis or grid runner: {strays}"


# ------------------------------------------------- pool reuse / trace store
def test_persistent_pool_identical_results_across_runs():
    """A context-managed executor reuses its pool and stays deterministic."""
    traces = _tiny_traces()
    baseline = run_cellular_sweep(["abc", "cubic"], traces, duration=3.0,
                                  executor=SweepExecutor(jobs=1))
    with SweepExecutor(jobs=2) as executor:
        first = run_cellular_sweep(["abc", "cubic"], traces, duration=3.0,
                                   executor=executor)
        second = run_cellular_sweep(["abc", "cubic"], traces, duration=3.0,
                                    executor=executor)
        assert executor.last_stats.pool_reused
        third = run_cellular_sweep(["abc", "cubic"], traces, duration=3.0,
                                   executor=executor)
    for scheme in ("abc", "cubic"):
        for trace in ("t1", "t2"):
            expected = _metrics(baseline[scheme][trace])
            assert _metrics(first[scheme][trace]) == expected
            assert _metrics(second[scheme][trace]) == expected
            assert _metrics(third[scheme][trace]) == expected
    assert executor._pool is None        # context exit closed the pool


def test_persistent_pool_refreshes_on_new_traces():
    """Registering new traces after pool start restarts it transparently."""
    config = SyntheticTraceConfig(mean_rate_bps=10e6, min_rate_bps=2e6,
                                  max_rate_bps=20e6, volatility=0.2,
                                  outage_rate_per_s=0.0, name="fresh")
    with SweepExecutor(jobs=2) as executor:
        first = run_cellular_sweep(
            ["abc", "cubic"], {"a": synthetic_trace(config, 3.0, seed=21)},
            duration=3.0, executor=executor)
        second = run_cellular_sweep(
            ["abc", "cubic"], {"b": synthetic_trace(config, 3.0, seed=22)},
            duration=3.0, executor=executor)
        assert not executor.last_stats.pool_reused   # store moved on
    assert set(first["abc"]) == {"a"}
    assert set(second["abc"]) == {"b"}


def test_trace_ref_round_trip_and_fingerprint():
    trace = _tiny_traces()["t1"]
    ref = register_trace(trace)
    assert isinstance(ref, TraceRef)
    # The store dedupes by content, so resolution returns a trace with the
    # same opportunities (possibly an earlier-registered identical instance).
    assert get_trace(ref.key).opportunity_times == trace.opportunity_times
    # Same content -> same ref; the fingerprint is content-addressed.
    again = register_trace(_tiny_traces()["t1"])
    assert again == ref
    other = register_trace(_tiny_traces()["t2"])
    assert other.key != ref.key
