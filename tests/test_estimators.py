"""Tests for the measurement utilities (rate windows, EWMA, min/max, RTT).

The windowed-rate estimator is checked against a brute-force oracle that
recomputes every answer from the full sample history.  Window sums are Python
ints and the span arithmetic is the same expression, so every comparison is an
exact ``==`` — there are **no tolerances** in the oracle cases.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.router import ABCRouterQdisc
from repro.simulator.estimators import (_TRIM, EWMA, RTTEstimator,
                                        WindowedMinMax, WindowedRateEstimator)
from repro.simulator.packet import Packet


# ------------------------------------------------------------ rate estimator
def test_rate_estimator_constant_stream():
    est = WindowedRateEstimator(window=1.0)
    for i in range(10):
        est.add(i * 0.1, 1250)  # 1250 B every 100 ms = 100 kbit/s
    assert est.rate_bps(0.9) == pytest.approx(1e5, rel=0.15)


def test_rate_estimator_expires_old_samples():
    est = WindowedRateEstimator(window=0.5)
    est.add(0.0, 10_000)
    est.add(5.0, 1000)
    # The 0.0 sample is far outside the window at t=5.
    assert est.rate_bps(5.0) == pytest.approx(1000 * 8 / 0.5, rel=0.01)


def test_rate_estimator_empty_is_zero():
    est = WindowedRateEstimator(window=0.1)
    assert est.rate_bps(10.0) == 0.0


def test_rate_estimator_reset():
    est = WindowedRateEstimator(window=1.0)
    est.add(0.0, 1000)
    est.reset()
    assert est.rate_bps(0.5) == 0.0


def test_rate_estimator_rejects_bad_window():
    with pytest.raises(ValueError):
        WindowedRateEstimator(window=0.0)


def test_rate_estimator_single_burst_not_infinite():
    est = WindowedRateEstimator(window=0.1)
    est.add(1.0, 1500)
    assert math.isfinite(est.rate_bps(1.0))


# ------------------------------------------------------------ rate oracle
class Oracle:
    """Brute-force reference: keeps every sample ever added and re-derives
    the windowed rate from scratch.  An old sample stays dead once a query or
    add has aged it out, which only matters for non-monotonic query times —
    so the cutoff is the largest one seen."""

    def __init__(self, window):
        self.window, self.samples, self.cutoff = window, [], -math.inf

    def add(self, now, size):
        self.samples.append((now, size))
        self.cutoff = max(self.cutoff, now - self.window)

    def rate_bps(self, now):
        self.cutoff = max(self.cutoff, now - self.window)
        live = [size for t, size in self.samples if t >= self.cutoff]
        if not live:
            return 0.0
        span = min(self.window, max(now - self.samples[0][0], 0.0))
        return sum(live) * 8.0 / (span if span > 0.0 else self.window)


def _pair(window):
    return Oracle(window), WindowedRateEstimator(window=window)


def _held(est):
    assert len(est._times) == len(est._sizes)
    return len(est._times)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("window", [0.04, 0.5])
def test_rate_matches_oracle_randomized(seed, window):
    rng = random.Random(f"rate-estimator-{seed}-{window}")
    oracle, est = _pair(window)
    now = 0.0
    for _ in range(6000):
        now += rng.expovariate(2000.0)
        size = rng.randrange(40, 1600)
        oracle.add(now, size)
        est.add(now, size)
        if rng.random() < 0.3:
            at = now + rng.random() * 0.01
            assert est.rate_bps(at) == oracle.rate_bps(at)
        assert est._start < _TRIM
    assert est.rate_bps(now) == oracle.rate_bps(now)
    live = sum(1 for t, _ in oracle.samples if t >= oracle.cutoff)
    assert _held(est) - est._start == live < 3000, (
        "6000 appends never trimmed the expired prefix")


def test_rate_matches_oracle_at_ack_burst_cadence():
    """The router's real cadence: bursts of same-timestamp samples, the rate
    read after every one of them (one read per departing packet)."""
    rng = random.Random("burst-cadence")
    oracle, est = _pair(0.05)
    now = 0.0
    for _ in range(400):
        now += rng.expovariate(200.0)
        for _ in range(rng.randrange(1, 12)):        # one dequeue burst
            oracle.add(now, 1500)
            est.add(now, 1500)
            assert est.rate_bps(now) == oracle.rate_bps(now)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=50.0),
                          st.integers(min_value=1, max_value=100_000)),
                min_size=1, max_size=300),
       st.floats(min_value=1e-3, max_value=5.0))
def test_rate_matches_oracle_on_arbitrary_histories(samples, window):
    oracle, est = _pair(window)
    last = 0.0
    for t, size in sorted(samples):
        oracle.add(t, size)
        est.add(t, size)
        last = t
    for at in (last, last + window / 2, last + 2 * window):
        assert est.rate_bps(at) == oracle.rate_bps(at)


# ------------------------------------------------------------ rate edges
def test_expiry_cutting_exactly_at_a_sample_time_keeps_that_sample():
    oracle, est = _pair(0.5)                          # 0.5, 0.25·k: exact floats
    for i in range(8):
        oracle.add(i * 0.25, 100 + i)
        est.add(i * 0.25, 100 + i)
    for at in (1.75, 2.0, 2.25):                      # cutoff == a sample time
        assert at - 0.5 in [t for t, _ in oracle.samples]
        assert est.rate_bps(at) == oracle.rate_bps(at)
    assert est.rate_bps(2.25) == 107 * 8.0 / 0.5      # only t = 1.75 survives


def test_trim_boundary_crossed_mid_query():
    """One query whose expiry walk runs past the trim length: the prefix is
    cut inside that query and the answers before, at and after it agree with
    the oracle."""
    oracle, est = _pair(1.0)
    step = 0.002                                      # 3·_TRIM fit one window
    for i in range(3 * _TRIM):
        oracle.add(i * step, 100 + i)
        est.add(i * step, 100 + i)
    assert _held(est) == 3 * _TRIM and est._start == 0
    end = 3 * _TRIM * step
    held = []
    for at in (1.0 + step * (_TRIM - 2),              # stops short of _TRIM
               1.0 + step * (_TRIM + 40.5),           # crosses it: trims
               1.0 + end - 1.5 * step,                # last sample still live
               100.0):                                # everything expired
        assert est.rate_bps(at) == oracle.rate_bps(at)
        held.append((_held(est), est._start))
    assert held == [(3 * _TRIM, _TRIM - 2), (2 * _TRIM - 41, 0), (1, 0),
                    (1, 1)]


def test_fully_expired_window_is_zero():
    oracle, est = _pair(0.1)
    for i in range(2 * _TRIM):
        oracle.add(i * 0.001, 500)
        est.add(i * 0.001, 500)
    assert est.rate_bps(10.0) == oracle.rate_bps(10.0) == 0.0
    oracle.add(10.5, 1000)
    est.add(10.5, 1000)                               # and it recovers
    assert est.rate_bps(10.55) == oracle.rate_bps(10.55) > 0.0


def test_reset_clears_trimmed_state():
    est = WindowedRateEstimator(window=0.5)
    for i in range(2 * _TRIM):
        est.add(i * 0.01, 777)
    assert est._start > 0 and est._expired > 0
    est.reset()
    assert est.rate_bps(2.0) == 0.0
    assert (_held(est), est._start, est._total, est._expired) == (0, 0, 0, 0)
    oracle = Oracle(0.5)
    oracle.add(5.0, 1000)
    est.add(5.0, 1000)
    assert est.rate_bps(5.1) == oracle.rate_bps(5.1)


# ------------------------------------------------------------ rate bounds
def test_unread_estimator_holds_a_window_of_samples():
    """Expiry runs on ``add`` too, so an estimator that is fed and never read
    stays bounded (a fold-on-read estimator grew without limit here)."""
    est = WindowedRateEstimator(window=0.04)
    interval = 0.001                                  # ~40 samples per window
    for i in range(50_000):
        est.add(i * interval, 1500)
        assert _held(est) <= 0.04 / interval + 1 + _TRIM
    assert est.rate_bps(50_000 * interval) == 40 * 1500 * 8.0 / 0.04


def test_dequeue_basis_router_holds_a_window_of_samples():
    """The router feeds exactly the estimator its control law reads, so
    sample memory is bounded by the measurement window — it used to append
    every enqueue to a second, never-read (hence never-expired) estimator."""
    router = ABCRouterQdisc(capacity_fn=lambda now: 12e6)
    interval = 0.001                       # 1 000 pkt/s -> ~40 per window
    for i in range(50_000):
        now = i * interval
        assert router.enqueue(Packet(flow_id=0, seq=i), now)
        router.dequeue(now)
    per_window = router.params.measurement_window / interval
    assert _held(router._rate) <= per_window + 1 + _TRIM


# ------------------------------------------------------------ EWMA
def test_ewma_initialises_with_first_sample():
    e = EWMA(alpha=0.5)
    assert e.value is None
    assert e.update(10.0) == 10.0


def test_ewma_moves_toward_samples():
    e = EWMA(alpha=0.5, initial=0.0)
    e.update(10.0)
    assert e.value == pytest.approx(5.0)
    e.update(10.0)
    assert e.value == pytest.approx(7.5)


def test_ewma_get_default():
    assert EWMA(alpha=0.2).get(default=3.0) == 3.0


def test_ewma_alpha_validation():
    with pytest.raises(ValueError):
        EWMA(alpha=0.0)
    with pytest.raises(ValueError):
        EWMA(alpha=1.5)


# ------------------------------------------------------------ min/max window
def test_windowed_max_tracks_maximum():
    w = WindowedMinMax(window=10.0, mode="max")
    w.update(0.0, 5.0)
    w.update(1.0, 3.0)
    w.update(2.0, 8.0)
    assert w.get() == 8.0


def test_windowed_max_expires():
    w = WindowedMinMax(window=1.0, mode="max")
    w.update(0.0, 100.0)
    w.update(2.0, 5.0)
    assert w.query(2.0) == 5.0


def test_windowed_min_tracks_minimum():
    w = WindowedMinMax(window=10.0, mode="min")
    for t, v in [(0, 0.3), (1, 0.1), (2, 0.2)]:
        w.update(float(t), v)
    assert w.get() == pytest.approx(0.1)


def test_windowed_minmax_default_when_empty():
    w = WindowedMinMax(window=1.0, mode="min")
    assert w.get(default=42.0) == 42.0


def test_windowed_minmax_validation():
    with pytest.raises(ValueError):
        WindowedMinMax(window=1.0, mode="median")
    with pytest.raises(ValueError):
        WindowedMinMax(window=0.0, mode="max")


# ------------------------------------------------------------ RTT estimator
def test_rtt_estimator_first_sample_sets_srtt():
    rtt = RTTEstimator()
    rtt.update(0.2)
    assert rtt.srtt == pytest.approx(0.2)
    assert rtt.rttvar == pytest.approx(0.1)


def test_rtt_estimator_tracks_min():
    rtt = RTTEstimator()
    for sample in (0.3, 0.1, 0.2):
        rtt.update(sample)
    assert rtt.minimum() == pytest.approx(0.1)


def test_rtt_estimator_rto_has_floor():
    rtt = RTTEstimator(min_rto=0.2)
    rtt.update(0.01)
    assert rtt.rto >= 0.2


def test_rtt_estimator_rto_before_samples():
    assert RTTEstimator().rto == pytest.approx(1.0)


def test_rtt_estimator_ignores_non_positive_samples():
    rtt = RTTEstimator()
    rtt.update(-1.0)
    assert rtt.srtt is None


def test_rtt_estimator_smoothed_default():
    assert RTTEstimator().smoothed(default=0.25) == 0.25
