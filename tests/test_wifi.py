"""Tests for the WiFi MAC model, MCS schedules and the §4.1 rate estimator."""

import itertools
import math

import numpy as np
import pytest

from repro.simulator.engine import EventLoop
from repro.simulator.packet import MTU, Packet
from repro.simulator.qdisc import FifoQdisc
from repro.wifi import mac
from repro.wifi.mac import WiFiLink
from repro.wifi.mcs import (AlternatingMCSSchedule, BrownianMCSSchedule,
                            FixedMCSSchedule, MCS_RATES_BPS, mcs_rate_bps)
from repro.wifi.rate_estimator import (MAX_BATCH_FRAMES, BatchObservation,
                                       WiFiRateEstimator)
from repro.wifi.mac import OVERHEAD_MAX, OVERHEAD_MIN


class Collector:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


# ------------------------------------------------------------ MCS schedules
def test_mcs_table_is_monotone():
    assert list(MCS_RATES_BPS) == sorted(MCS_RATES_BPS)
    assert mcs_rate_bps(7) == 65e6
    with pytest.raises(ValueError):
        mcs_rate_bps(8)


def test_fixed_schedule():
    sched = FixedMCSSchedule(4)
    assert sched.index_at(0.0) == 4
    assert sched.rate_at(100.0) == MCS_RATES_BPS[4]


def test_alternating_schedule_period():
    sched = AlternatingMCSSchedule(low_index=1, high_index=7, period=2.0)
    assert sched.index_at(0.5) == 7
    assert sched.index_at(2.5) == 1
    assert sched.index_at(4.5) == 7
    with pytest.raises(ValueError):
        AlternatingMCSSchedule(period=0.0)


def test_brownian_schedule_bounded_and_deterministic():
    sched = BrownianMCSSchedule(min_index=3, max_index=7, period=1.0, seed=4)
    indices = [sched.index_at(t) for t in np.arange(0, 50, 1.0)]
    assert all(3 <= i <= 7 for i in indices)
    again = BrownianMCSSchedule(min_index=3, max_index=7, period=1.0, seed=4)
    assert indices == [again.index_at(t) for t in np.arange(0, 50, 1.0)]
    steps = {abs(a - b) for a, b in zip(indices, indices[1:])}
    assert steps <= {0, 1}


# ------------------------------------------------------------ MAC model
def test_wifi_link_delivers_all_packets_in_batches():
    env = EventLoop()
    sink = Collector()
    link = WiFiLink(env, mcs=FixedMCSSchedule(7), qdisc=FifoQdisc(500))
    link.connect(0, (0.0, sink.receive, False))
    for i in range(100):
        link.send(Packet(flow_id=0, seq=i))
    env.run(until=1.0)
    assert len(sink.packets) == 100
    assert link.batches_sent >= 100 / MAX_BATCH_FRAMES


def test_wifi_link_records_every_frame_it_delivers_inline():
    """A finished batch hands its frames straight to their flows' receivers
    (no delivery event per frame) and records each one: one departure per frame
    of every batch, at that batch's block-ACK time."""
    import collections

    from repro.experiments.scenario_spec import build
    from repro.experiments.wifi_eval import wifi_case_spec

    spec = wifi_case_spec("abc", 2, 1.0, 0.04, "alternating", 9, 0.06)
    built = build(spec)
    link = built.scenario.links[0]
    built.scenario.run(spec.duration)
    delivered = sum(len(flow.stats) for flow in built.flows)
    frames = collections.Counter()
    for observation in link.batch_log:
        frames[observation.time] += observation.batch_frames
    assert delivered > 100 and len(link.departure_times) >= delivered
    assert collections.Counter(link.departure_times) == frames
    assert len(link.departure_bytes) == len(link.departure_times)
    assert sum(link.departure_bytes) >= sum(
        sum(flow.stats.sizes) for flow in built.flows)


def test_wifi_batch_size_capped_at_max(monkeypatch):
    monkeypatch.setattr(mac, "MAX_BATCH_FRAMES", 8)
    env = EventLoop()
    link = WiFiLink(env, mcs=FixedMCSSchedule(7), qdisc=FifoQdisc(500))
    link.connect(0, (0.0, Collector().receive, False))
    for i in range(50):
        link.send(Packet(flow_id=0, seq=i))
    env.run(until=1.0)
    assert max(obs.batch_frames for obs in link.batch_log) <= 8


def test_wifi_inter_ack_time_grows_with_batch_size():
    """Fig. 4: inter-ACK time is linear in batch size with slope S/R."""
    env = EventLoop()
    link = WiFiLink(env, mcs=FixedMCSSchedule(5), seed=1,
                    qdisc=FifoQdisc(2000))
    link.connect(0, (0.0, Collector().receive, False))

    # Alternate between bursts of different sizes to sample several b values.
    def offer(burst):
        for i in range(burst):
            link.send(Packet(flow_id=0, seq=i))

    t = 0.0
    for burst in (2, 8, 16, 32, 2, 8, 16, 32, 4, 24):
        env.post_at(t, offer, burst)
        t += 0.05
    env.run(until=t + 0.1)

    sizes = np.array([o.batch_frames for o in link.batch_log])
    times = np.array([o.inter_ack_time for o in link.batch_log])
    assert np.ptp(sizes) > 10
    slope = np.polyfit(sizes, times, 1)[0]
    expected = MTU * 8 / mcs_rate_bps(5)
    assert slope == pytest.approx(expected, rel=0.2)


def test_wifi_true_capacity_below_phy_rate():
    env = EventLoop()
    link = WiFiLink(env, mcs=FixedMCSSchedule(7), qdisc=FifoQdisc())
    assert link.true_capacity_bps(0.0) < mcs_rate_bps(7)
    assert link.true_capacity_bps(0.0) > 0.5 * mcs_rate_bps(7)


def test_wifi_offered_bits_integrates_capacity():
    env = EventLoop()
    link = WiFiLink(env, mcs=FixedMCSSchedule(7), qdisc=FifoQdisc())
    bits = link.offered_bits(0.0, 2.0)
    assert bits == pytest.approx(2.0 * link.true_capacity_bps(0.0), rel=0.05)


def test_wifi_capacity_prefers_estimator_when_attached():
    env = EventLoop()
    estimator = WiFiRateEstimator()
    link = WiFiLink(env, mcs=FixedMCSSchedule(7), qdisc=FifoQdisc(),
                    estimator=estimator)
    # Before any observation the estimator reports 0, so fall back to truth.
    assert link.capacity_bps(0.0) == pytest.approx(link.true_capacity_bps(0.0))


# ------------------------------------------------------------ rate estimator
def obs(batch, tia, bitrate=52e6, t=0.0, frame_bits=MTU * 8.0):
    return BatchObservation(time=t, batch_frames=batch, frame_bits=frame_bits,
                            inter_ack_time=tia, bitrate_bps=bitrate)


def test_estimator_full_batch_recovers_capacity():
    est = WiFiRateEstimator()
    # A full batch: TIA = 32*S/R + h with h = 1 ms.
    tia = 32 * MTU * 8 / 52e6 + 0.001
    est.observe_batch(obs(32, tia))
    expected = 32 * MTU * 8 / tia
    assert est.estimate_bps(0.0, apply_cap=False) == pytest.approx(expected)


def test_estimator_extrapolates_partial_batches():
    """Eq. 8: a partial batch predicts the same capacity as a full one."""
    est_full = WiFiRateEstimator()
    est_partial = WiFiRateEstimator()
    h = 0.0015
    full_tia = 32 * MTU * 8 / 52e6 + h
    partial_tia = 4 * MTU * 8 / 52e6 + h
    est_full.observe_batch(obs(32, full_tia))
    est_partial.observe_batch(obs(4, partial_tia))
    assert est_partial.estimate_bps(0.0, apply_cap=False) == pytest.approx(
        est_full.estimate_bps(0.0, apply_cap=False), rel=1e-6)


def test_estimator_cap_limits_to_double_observed_rate():
    est = WiFiRateEstimator(window=1.0)
    h = 0.001
    # A tiny batch every 100 ms: observed throughput is low.
    for i in range(10):
        tia = 1 * MTU * 8 / 52e6 + h
        est.observe_batch(obs(1, tia, t=i * 0.1))
    capped = est.estimate_bps(1.0, apply_cap=True)
    uncapped = est.estimate_bps(1.0, apply_cap=False)
    assert capped <= 2.0 * est._dequeue_rate.rate_bps(1.0) + 1e-6
    assert capped < uncapped


def test_estimator_smooths_over_window():
    est = WiFiRateEstimator(window=0.04)
    est.observe_batch(obs(32, 0.008, t=0.0))
    est.observe_batch(obs(32, 0.012, t=0.01))
    smoothed = est.estimate_bps(0.01, apply_cap=False)
    lo = 32 * MTU * 8 / 0.012
    hi = 32 * MTU * 8 / 0.008
    assert lo < smoothed < hi


def test_estimator_old_samples_expire():
    est = WiFiRateEstimator(window=0.04)
    est.observe_batch(obs(32, 0.008, t=0.0))
    assert est.estimate_bps(1.0, apply_cap=False) == 0.0


def test_estimator_keeps_a_sample_exactly_one_window_old():
    """The window is closed at its old end, as the router's
    ``WindowedRateEstimator`` is: a sample ``window`` seconds old still
    counts, and one a moment older does not."""
    est = WiFiRateEstimator(window=0.5)
    est.observe_batch(obs(32, 0.008, t=0.0))
    assert est.estimate_bps(0.5, apply_cap=False) == 32 * MTU * 8 / 0.008
    assert est.estimate_bps(0.5000001, apply_cap=False) == 0.0


def test_estimator_rejects_bad_observations():
    est = WiFiRateEstimator()
    with pytest.raises(ValueError):
        est.observe_batch(obs(0, 0.01))
    with pytest.raises(ValueError):
        est.observe_batch(obs(4, -1.0))


def test_estimator_accuracy_within_five_percent_end_to_end():
    """Fig. 5's headline claim, exercised through the full MAC model."""
    from repro.cc.registry import make_cc
    from repro.simulator.scenario import Scenario
    from repro.simulator.traffic import RateLimitedSource

    scenario = Scenario()
    estimator = WiFiRateEstimator()
    link = WiFiLink(scenario.env, mcs=FixedMCSSchedule(5),
                    seed=2, qdisc=FifoQdisc(2000),
                    estimator=estimator)
    scenario.add_custom_link(link)
    true_capacity = link.true_capacity_bps(0.0)
    scenario.add_flow(make_cc("cubic"), [link], rtt=0.02,
                      source=RateLimitedSource(0.6 * true_capacity))
    scenario.run(10.0)
    predicted = estimator.estimate_bps(10.0, apply_cap=False)
    assert predicted == pytest.approx(true_capacity, rel=0.05)


# ------------------------------------------------------------ µ̂ oracle
@pytest.mark.parametrize("load", ["backlogged", "bursty"])
@pytest.mark.parametrize("mcs", (3, 5, 7))
def test_estimator_mean_matches_the_analytic_mean(mcs, load):
    """The uncapped µ̂, read every 10 ms over 20 s at a fixed MCS, against
    its analytic mean.

    Eq. 8 is exact by construction in this MAC model: a batch of b frames
    takes b·S/R + h, with h drawn uniformly from [lo, hi] =
    [OVERHEAD_MIN, OVERHEAD_MAX], so T̂IA(M) = TIA(b) + (M − b)·S/R is
    M·S/R + h whatever b was, and each sample µ̂ = M·S/(M·S/R + h) has mean
    (M·S/(hi − lo))·ln((M·S/R + hi)/(M·S/R + lo)).  Backlogged, every batch
    but the first is full, and the rate-doubling cap never binds; a bursty
    sender's partial batches must land on the same mean, through Eq. 8's
    (M − b)·S/R term.  Measured agreement: within 0.13 %.
    """
    env = EventLoop()
    estimator = WiFiRateEstimator()
    link = WiFiLink(env, mcs=FixedMCSSchedule(mcs), seed=1,
                    qdisc=FifoQdisc(4 * MAX_BATCH_FRAMES), estimator=estimator)
    link.connect(0, (0.0, Collector().receive, False))
    bursts = itertools.cycle((1, 5, 9, 13, 17, 21, 25, 29))
    raw, capped = [], []

    def read(tick):                     # at tick × 10 ms
        if tick:
            raw.append(estimator.estimate_bps(env.now, apply_cap=False))
            capped.append(estimator.estimate_bps(env.now, apply_cap=True))
        if load == "bursty":
            offer = next(bursts)
        else:
            offer = 3 * MAX_BATCH_FRAMES - link.qdisc.backlog_packets
        for seq in range(offer):
            link.send(Packet(flow_id=0, seq=seq))
        if tick + 1 < 2000:
            env.post_at((tick + 1) / 100.0, read, tick + 1)

    env.post_at(0.0, read, 0)
    env.run(until=20.0)
    full_batch_bits = MAX_BATCH_FRAMES * MTU * 8.0
    airtime = full_batch_bits / mcs_rate_bps(mcs)
    analytic = (full_batch_bits / (OVERHEAD_MAX - OVERHEAD_MIN)
                * math.log((airtime + OVERHEAD_MAX) / (airtime + OVERHEAD_MIN)))
    assert len(raw) == 1999
    assert np.mean(raw) == pytest.approx(analytic, rel=0.002)
    if load == "backlogged":
        assert {obs.batch_frames for obs in link.batch_log[1:]} == {
            MAX_BATCH_FRAMES}
        # Past the first window, the link delivers µ̂ and the cap is 2·µ̂.
        assert capped[5:] == raw[5:]
    else:
        assert len({obs.batch_frames for obs in link.batch_log}) > 4
