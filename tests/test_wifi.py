"""Tests for the WiFi MAC model, MCS schedules and the §4.1 rate estimator."""

import numpy as np
import pytest

from repro.simulator.engine import EventLoop
from repro.simulator.packet import MTU, Packet
from repro.simulator.qdisc import FifoQdisc
from repro.wifi import (AlternatingMCSSchedule, BatchObservation,
                        BrownianMCSSchedule, FixedMCSSchedule, MCS_RATES_BPS,
                        WiFiLink, WiFiMacConfig, WiFiRateEstimator, mcs_rate_bps)


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
def test_mac_config_validation():
    with pytest.raises(ValueError):
        WiFiMacConfig(max_batch_frames=0)
    with pytest.raises(ValueError):
        WiFiMacConfig(overhead_min=0.01, overhead_max=0.001)


def test_wifi_link_delivers_all_packets_in_batches():
    env = EventLoop()
    sink = Collector()
    link = WiFiLink(env, mcs=FixedMCSSchedule(7), qdisc=FifoQdisc(500), dst=sink)
    for i in range(100):
        link.send(Packet(flow_id=0, seq=i))
    env.run(until=1.0)
    assert len(sink.packets) == 100
    assert link.batches_sent >= 100 / link.config.max_batch_frames


def test_wifi_batch_size_capped_at_max():
    env = EventLoop()
    link = WiFiLink(env, mcs=FixedMCSSchedule(7),
                    config=WiFiMacConfig(max_batch_frames=8),
                    qdisc=FifoQdisc(500), dst=Collector())
    for i in range(50):
        link.send(Packet(flow_id=0, seq=i))
    env.run(until=1.0)
    assert max(obs.batch_frames for obs in link.batch_log) <= 8


def test_wifi_inter_ack_time_grows_with_batch_size():
    """Fig. 4: inter-ACK time is linear in batch size with slope S/R."""
    env = EventLoop()
    config = WiFiMacConfig(seed=1)
    link = WiFiLink(env, mcs=FixedMCSSchedule(5), config=config,
                    qdisc=FifoQdisc(2000), dst=Collector())

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
    est = WiFiRateEstimator(max_batch_frames=32)
    # A full batch: TIA = 32*S/R + h with h = 1 ms.
    tia = 32 * MTU * 8 / 52e6 + 0.001
    est.observe_batch(obs(32, tia))
    expected = 32 * MTU * 8 / tia
    assert est.estimate_bps(0.0, apply_cap=False) == pytest.approx(expected)


def test_estimator_extrapolates_partial_batches():
    """Eq. 8: a partial batch predicts the same capacity as a full one."""
    est_full = WiFiRateEstimator(max_batch_frames=32)
    est_partial = WiFiRateEstimator(max_batch_frames=32)
    h = 0.0015
    full_tia = 32 * MTU * 8 / 52e6 + h
    partial_tia = 4 * MTU * 8 / 52e6 + h
    est_full.observe_batch(obs(32, full_tia))
    est_partial.observe_batch(obs(4, partial_tia))
    assert est_partial.estimate_bps(0.0, apply_cap=False) == pytest.approx(
        est_full.estimate_bps(0.0, apply_cap=False), rel=1e-6)


def test_estimator_cap_limits_to_double_observed_rate():
    est = WiFiRateEstimator(max_batch_frames=32, window=1.0)
    h = 0.001
    # A tiny batch every 100 ms: observed throughput is low.
    for i in range(10):
        tia = 1 * MTU * 8 / 52e6 + h
        est.observe_batch(obs(1, tia, t=i * 0.1))
    capped = est.estimate_bps(1.0, apply_cap=True)
    uncapped = est.estimate_bps(1.0, apply_cap=False)
    assert capped <= 2.0 * est.observed_dequeue_rate(1.0) + 1e-6
    assert capped < uncapped


def test_estimator_smooths_over_window():
    est = WiFiRateEstimator(max_batch_frames=32, window=0.04)
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


def test_estimator_rejects_bad_observations():
    est = WiFiRateEstimator()
    with pytest.raises(ValueError):
        est.observe_batch(obs(0, 0.01))
    with pytest.raises(ValueError):
        est.observe_batch(obs(4, -1.0))


def test_estimator_accuracy_within_five_percent_end_to_end():
    """Fig. 5's headline claim, exercised through the full MAC model."""
    from repro.cc import make_cc
    from repro.simulator.scenario import Scenario
    from repro.simulator.traffic import RateLimitedSource

    scenario = Scenario()
    estimator = WiFiRateEstimator(max_batch_frames=32)
    link = WiFiLink(scenario.env, mcs=FixedMCSSchedule(5),
                    config=WiFiMacConfig(seed=2), qdisc=FifoQdisc(2000),
                    estimator=estimator)
    scenario.add_custom_link(link, name="wifi")
    true_capacity = link.true_capacity_bps(0.0)
    scenario.add_flow(make_cc("cubic"), [link], rtt=0.02,
                      source=RateLimitedSource(0.6 * true_capacity))
    scenario.run(10.0)
    predicted = estimator.estimate_bps(10.0, apply_cap=False)
    assert predicted == pytest.approx(true_capacity, rel=0.05)
