"""Tests for the experiment harness modules (reduced-size runs)."""

import math

import pytest

from repro.experiments.runner import (make_scheme, normalized_table,
                                      run_cellular_sweep, sweep_averages)
from repro.experiments.timeseries import fig17_square_wave, summarize_timeseries
from repro.experiments.fairness import fig3_fairness
from repro.experiments.wifi_eval import fig4_inter_ack, fig5_rate_prediction, fig10_wifi
from repro.experiments.coexistence import (fig6_nonabc_bottleneck,
                                           fig12_offered_load_sweep,
                                           fig13_app_limited)
from repro.experiments.pareto import fig8_pareto
from repro.cellular.synthetic import synthetic_trace_set


# ------------------------------------------------------------ runner
def test_make_scheme_known_and_unknown():
    spec = make_scheme("cubic+codel")
    assert spec.name == "cubic+codel"
    assert spec.make_sender().name == "cubic"
    with pytest.raises(KeyError):
        make_scheme("not-a-scheme")


def test_make_scheme_abc_uses_abc_router():
    spec = make_scheme("abc")
    assert spec.make_sender().uses_abc
    assert type(spec.make_qdisc(100)).__name__ == "ABCRouterQdisc"


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
    from repro.experiments.coexistence import fig6_cell
    routed = fig6_nonabc_bottleneck(duration=12.0)
    direct = fig6_cell(duration=12.0, wired_mbps=12.0, rtt=0.1,
                       sample_interval=0.25, cross_traffic=False,
                       cross_schedule=None, seed=0)
    assert routed.tracking_error == direct.tracking_error
    assert (routed.throughput_mbps == direct.throughput_mbps).all()
    assert (routed.w_abc == direct.w_abc).all()


def test_fig13_multi_seed_aggregates_distinct_traces():
    from repro.analysis.stats import SeedResultSet
    from repro.experiments.coexistence import fig13_cell
    multi = fig13_app_limited(num_app_limited=5, duration=8.0, seeds=[1, 2])
    assert isinstance(multi, SeedResultSet)
    per_seed = [fig13_cell(num_app_limited=5, aggregate_app_rate_mbps=1.0,
                           duration=8.0, rtt=0.1, seed=s) for s in (1, 2)]
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
