"""Tests for the multi-seed statistical sweep layer.

Three load-bearing properties:

* single-seed sweeps are bit-for-bit identical to the legacy output,
* the confidence-interval math matches hand-computed values,
* a reused (persistent) pool returns identical results across repeated
  ``run()`` calls.
"""

from __future__ import annotations

import math
import pickle

import pytest

from repro.analysis.stats import (SeedAggregate, SeedResultSet,
                                  aggregate_cells, aggregate_metric_dicts,
                                  aggregate_values, result_metrics,
                                  t_critical_95)
from repro.cellular.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.experiments.pareto import fig9_sweep
from repro.experiments.runner import run_cellular_sweep, sweep_averages
from repro.runtime import (SweepExecutor, SweepSpec, TraceRef,
                           register_trace, resolve_link_spec)


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
    assert agg.ci_lo == pytest.approx(2.0 - expected_hw)
    assert agg.ci_hi == pytest.approx(2.0 + expected_hw)


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


def test_aggregate_cells_groups_by_scheme_and_trace():
    traces = _tiny_traces()
    spec = SweepSpec(schemes=["abc"], traces=traces, seeds=(0, 1),
                     duration=3.0)
    table = aggregate_cells(spec.run_cells(SweepExecutor(jobs=1)))
    assert set(table) == {"abc"}
    assert set(table["abc"]) == {"t1", "t2"}
    assert table["abc"]["t1"]["utilization"].n == 2


# --------------------------------------------------- single-seed == legacy
def test_single_seed_sweep_is_bit_identical_to_legacy():
    traces = _tiny_traces()
    legacy = run_cellular_sweep(["abc", "cubic+pie"], traces, duration=3.0)
    single = run_cellular_sweep(["abc", "cubic+pie"], traces, duration=3.0,
                                seeds=[0])
    for scheme in ("abc", "cubic+pie"):
        for trace in ("t1", "t2"):
            assert _metrics(single[scheme][trace]) == _metrics(legacy[scheme][trace])


def test_fig9_single_seed_matches_legacy():
    """seeds=[s] ≡ seed=s bit-for-bit — including for cubic+pie, whose PIE
    qdisc consumes the per-cell seed (the single-seed path must keep the
    legacy cell seed 0 and only move the trace seed)."""
    legacy = fig9_sweep(schemes=["abc", "cubic+pie"], duration=3.0, seed=1,
                        trace_names=["Verizon-LTE-1"])
    single = fig9_sweep(schemes=["abc", "cubic+pie"], duration=3.0,
                        seeds=[1], trace_names=["Verizon-LTE-1"])
    for scheme in ("abc", "cubic+pie"):
        assert (_metrics(single[scheme]["Verizon-LTE-1"])
                == _metrics(legacy[scheme]["Verizon-LTE-1"]))


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
    assert (resolve_link_spec(ref).opportunity_times
            == trace.opportunity_times)
    assert resolve_link_spec(12e6) == 12e6           # non-refs pass through
    # Same content -> same ref; the fingerprint is content-addressed.
    again = register_trace(_tiny_traces()["t1"])
    assert again == ref
    other = register_trace(_tiny_traces()["t2"])
    assert other.key != ref.key
