"""Tests for cellular traces and the synthetic generators."""

import numpy as np
import pytest

from repro.cellular.synthetic import (SyntheticTraceConfig, lte_showcase_trace,
                                      synthetic_trace, synthetic_trace_set)
from repro.cellular.trace import CellularTrace
from repro.cellular.synthetic import TRACE_LIBRARY, rate_series, uplink_downlink_pair
from repro.simulator.engine import EventLoop
from repro.simulator.link import OpportunityLink
from repro.simulator.packet import MTU


def _offered_bits(trace: CellularTrace, t0: float, t1: float) -> float:
    """What a link replaying ``trace`` offers over ``[t0, t1)``."""
    return OpportunityLink(EventLoop(), trace.opportunity_times).offered_bits(
        t0, t1)


# ------------------------------------------------------------ CellularTrace
def test_trace_basic_properties():
    trace = CellularTrace([0.0, 0.001, 0.002, 0.003], name="t")
    assert len(trace) == 4
    assert trace.duration == pytest.approx(0.003)
    assert trace.mean_rate_bps() == pytest.approx(4 * MTU * 8 / 0.003)


def test_trace_requires_opportunities():
    with pytest.raises(ValueError):
        CellularTrace([])
    with pytest.raises(ValueError):
        CellularTrace([-1.0, 0.0])


def test_trace_rate_in_window():
    trace = CellularTrace([i * 0.001 for i in range(1000)])
    assert _offered_bits(trace, 0.0, 0.5) / 0.5 == pytest.approx(12e6, rel=0.01)
    assert _offered_bits(trace, 0.5, 0.5) == 0.0


def test_trace_bits_between_counts_opportunities():
    trace = CellularTrace([0.0, 0.1, 0.2, 0.3, 0.9])
    per_opp = MTU * 8.0
    assert _offered_bits(trace, 0.0, 0.5) == pytest.approx(4 * per_opp)
    # Half-open window: an opportunity exactly at t1 is excluded, one at t0
    # is included, matching the bisect cumulative-count convention.
    assert _offered_bits(trace, 0.1, 0.3) == pytest.approx(2 * per_opp)
    assert _offered_bits(trace, 0.5, 0.5) == 0.0
    # The link replays the trace cyclically: one 0.9 s period holds all five.
    assert _offered_bits(trace, 0.9, 1.8) == pytest.approx(5 * per_opp)


def test_trace_bits_between_matches_a_direct_count():
    trace = CellularTrace([i * 0.003 for i in range(500)])
    per_opp = MTU * 8.0
    for t0, t1 in [(0.0, 0.5), (0.25, 1.0), (0.1, 0.11)]:
        count = sum(1 for t in trace.opportunity_times if t0 <= t < t1)
        assert _offered_bits(trace, t0, t1) == count * per_opp


def test_trace_scaled_changes_rate():
    trace = CellularTrace([i * 0.001 for i in range(100)])
    double = trace.scaled(2.0)
    assert double.mean_rate_bps() == pytest.approx(2 * trace.mean_rate_bps(), rel=0.05)
    with pytest.raises(ValueError):
        trace.scaled(0.0)


def test_trace_truncated():
    trace = CellularTrace([i * 0.1 for i in range(100)])
    cut = trace.truncated(1.0)
    assert cut.duration <= 1.0
    with pytest.raises(ValueError):
        CellularTrace([5.0]).truncated(1.0)


def test_trace_array_is_read_only():
    """A trace's cache key is read from ``_times_np``, so an in-place write
    must fail rather than let the store and the cache answer wrongly."""
    trace = CellularTrace([i * 0.01 for i in range(100)], name="ro")
    with pytest.raises(ValueError):
        trace._times_np[0] = 1.0
    assert trace.scaled(2.0).duration == pytest.approx(trace.duration / 2)
    assert len(trace.truncated(0.5)) == 51
    assert not trace.scaled(2.0)._times_np.flags.writeable


def test_trace_mahimahi_round_trip(tmp_path):
    trace = CellularTrace([0.001, 0.002, 0.002, 0.01], name="rt")
    path = tmp_path / "trace.mahi"
    path.write_text("# Mahimahi: one delivery opportunity per line, in ms\n"
                    "1\n2\n2\n\n10\n")
    loaded = CellularTrace.from_mahimahi_file(path)
    assert loaded.name == "trace"
    assert loaded.opportunity_times == trace.opportunity_times
    assert loaded.duration == pytest.approx(trace.duration, abs=1e-3)


def test_trace_from_rate_series():
    trace = CellularTrace.from_rate_series([0.0, 1.0], [12e6, 6e6])
    assert _offered_bits(trace, 0.0, 1.0) == pytest.approx(12e6, rel=0.02)
    assert _offered_bits(trace, 1.0, 2.0) == pytest.approx(6e6, rel=0.02)
    with pytest.raises(ValueError):
        CellularTrace.from_rate_series([0.0], [1e6, 2e6])
    with pytest.raises(ValueError):
        CellularTrace.from_rate_series([], [])


# ------------------------------------------------------------ synthetic traces
def test_synthetic_config_validation():
    with pytest.raises(ValueError):
        SyntheticTraceConfig(min_rate_bps=10e6, max_rate_bps=5e6)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(mean_rate_bps=50e6, max_rate_bps=30e6)
    with pytest.raises(ValueError):
        SyntheticTraceConfig(update_interval=0.0)


def test_rate_series_within_bounds():
    config = SyntheticTraceConfig(mean_rate_bps=10e6, min_rate_bps=1e6,
                                  max_rate_bps=20e6, outage_rate_per_s=0.0)
    _, rates = rate_series(config, duration=20.0, seed=1)
    assert np.all(rates >= 1e6 - 1e-6)
    assert np.all(rates <= 20e6 + 1e-6)


def test_rate_series_outages_produce_zero_rate():
    config = SyntheticTraceConfig(outage_rate_per_s=2.0, outage_duration_s=0.5)
    _, rates = rate_series(config, duration=30.0, seed=3)
    assert np.any(rates == 0.0)


def test_synthetic_trace_reproducible_with_seed():
    config = TRACE_LIBRARY["Verizon-LTE-1"]
    a = synthetic_trace(config, 5.0, seed=9)
    b = synthetic_trace(config, 5.0, seed=9)
    assert list(a.opportunity_times) == list(b.opportunity_times)


def test_synthetic_trace_differs_across_seeds():
    config = TRACE_LIBRARY["Verizon-LTE-1"]
    a = synthetic_trace(config, 5.0, seed=1)
    b = synthetic_trace(config, 5.0, seed=2)
    assert list(a.opportunity_times) != list(b.opportunity_times)


def test_synthetic_trace_mean_rate_near_config():
    config = SyntheticTraceConfig(mean_rate_bps=10e6, min_rate_bps=2e6,
                                  max_rate_bps=25e6, outage_rate_per_s=0.0,
                                  volatility=0.1)
    trace = synthetic_trace(config, 30.0, seed=5)
    assert trace.mean_rate_bps() == pytest.approx(10e6, rel=0.5)


def test_synthetic_trace_has_large_dynamic_range():
    """§2: capacity can double and halve within a second."""
    trace = lte_showcase_trace(duration=30.0, seed=7)
    counts, _ = np.histogram(trace.opportunity_times, bins=60,
                             range=(0.0, 30.0))
    rates = counts * MTU * 8.0 / 0.5        # bit/s per 0.5 s bin
    positive = rates[rates > 0]
    assert positive.max() / max(positive.min(), 1e5) > 4.0


def test_trace_set_has_eight_operators():
    traces = synthetic_trace_set(duration=5.0, seed=1)
    assert len(traces) == 8
    assert all(len(t) > 100 for t in traces.values())


def test_trace_set_subset_selection():
    traces = synthetic_trace_set(duration=5.0, names=["ATT-LTE-1"])
    assert list(traces) == ["ATT-LTE-1"]


def test_uplink_downlink_pair():
    up, down = uplink_downlink_pair(duration=5.0, seed=2)
    assert up.name != down.name
    assert down.mean_rate_bps() > up.mean_rate_bps()
