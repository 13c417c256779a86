"""Unit tests for the end-to-end congestion-control baselines.

These tests drive the algorithms directly through synthetic ACK feedback (no
simulator), checking each control law's defining behaviours.
"""

import math
import random

import numpy as np
import pytest

from repro.cc import (AIMD, BBR, Copa, Cubic, NewReno, PCCVivace, Sprout,
                      Vegas, Verus, available_schemes, make_cc)
from repro.cc.cubic import CUBIC_BETA, CUBIC_C
from repro.simulator.packet import MTU, AckFeedback


def ack(now, rtt=0.1, bytes_acked=MTU, accel=True, ece=False, in_flight=10,
        sent_time=None):
    return AckFeedback(now=now, rtt=rtt, bytes_acked=bytes_acked, accel=accel,
                       ece=ece, packets_in_flight=in_flight,
                       sent_time=sent_time if sent_time is not None else now - (rtt or 0.1))


def drive(cc, n_acks=100, rtt=0.1, start=0.0, spacing=0.01, **kwargs):
    now = start
    for _ in range(n_acks):
        cc.on_ack(ack(now, rtt=rtt, **kwargs))
        now += spacing
    return now


# ------------------------------------------------------------ registry
def test_registry_lists_all_schemes():
    names = available_schemes()
    for expected in ("abc", "cubic", "bbr", "copa", "vegas", "sprout", "verus",
                     "pcc", "xcp", "rcp", "vcp", "newreno", "aimd"):
        assert expected in names


def test_registry_unknown_scheme_raises():
    with pytest.raises(KeyError):
        make_cc("quic-bbr3")


# ------------------------------------------------------------ on_ack contract
def _contract_script():
    """Slow start, then ECE marks every seventh ACK; RTT samples missing or
    varied, mixed ``bytes_acked`` and the explicit schemes' header fields."""
    rng = random.Random(26)
    script, now = [], 0.0
    for i in range(300):
        now += rng.uniform(0.001, 0.02)
        script.append(AckFeedback(
            now=now, rtt=rng.choice((None, 0.04, 0.1, 0.3)),
            bytes_acked=rng.choice((MTU, MTU, 536, 40)),
            accel=rng.random() < 0.6, ece=i >= 80 and i % 7 == 0,
            packets_in_flight=rng.randint(0, 40), sent_time=now - 0.05,
            meta={"xcp_feedback_bytes": rng.uniform(-MTU, MTU),
                  "vcp_region": rng.choice((1, 2, 3)),
                  "rcp_rate_bps": rng.uniform(1e5, 1e7)}))
    return script


@pytest.mark.parametrize("scheme", available_schemes())
def test_on_ack_returns_the_window_the_sender_fills(scheme):
    """An ACK-clocked scheme's ``on_ack`` returns ``max(cwnd(), min_cwnd())``
    as it stands after the update; a paced one returns None."""
    cc = make_cc(scheme)
    for step, feedback in enumerate(_contract_script()):
        if step == 150:            # a timeout mid-run, as the sender would
            cc.on_timeout(feedback.now)
        window = cc.on_ack(feedback)
        if cc.needs_pacing:
            assert window is None, step
        else:
            assert window == max(cc.cwnd(), cc.min_cwnd()) == cc.window(), step


def test_registry_builds_instances():
    assert isinstance(make_cc("cubic"), Cubic)
    assert isinstance(make_cc("vegas"), Vegas)
    assert make_cc("abc").uses_abc


# ------------------------------------------------------------ AIMD / NewReno
def test_aimd_slow_start_doubles_per_window():
    cc = AIMD(initial_cwnd=2.0, ssthresh=64.0)
    drive(cc, n_acks=2)
    assert cc.cwnd() == pytest.approx(4.0)


def test_aimd_congestion_avoidance_linear():
    cc = AIMD(initial_cwnd=10.0, ssthresh=1.0)
    before = cc.cwnd()
    drive(cc, n_acks=10)  # one window's worth of ACKs -> +1 packet
    assert cc.cwnd() == pytest.approx(before + 1.0, rel=0.05)


def test_aimd_loss_halves_window():
    cc = AIMD(initial_cwnd=20.0, ssthresh=1.0)
    cc.on_loss(1.0)
    assert cc.cwnd() == pytest.approx(10.0)


def test_newreno_timeout_resets_to_min():
    cc = NewReno(initial_cwnd=30.0)
    cc.on_timeout(1.0)
    assert cc.cwnd() == cc.min_cwnd()


def test_newreno_reduces_once_per_rtt():
    cc = NewReno(initial_cwnd=32.0)
    cc.ssthresh = 1.0
    cc.on_loss(1.0)
    w = cc.cwnd()
    cc.on_loss(1.001)  # within the same RTT: ignored
    assert cc.cwnd() == w


# ------------------------------------------------------------ Cubic
def test_cubic_slow_start_growth():
    cc = Cubic(initial_cwnd=2.0)
    drive(cc, n_acks=4)
    assert cc.cwnd() == pytest.approx(6.0)


def test_cubic_loss_reduces_by_beta():
    cc = Cubic(initial_cwnd=100.0)
    cc.ssthresh = 1.0
    cc.on_loss(1.0)
    assert cc.cwnd() == pytest.approx(70.0, rel=0.01)


def test_cubic_concave_recovery_toward_wmax():
    cc = Cubic(initial_cwnd=100.0)
    cc.ssthresh = 1.0
    cc.on_loss(1.0)
    after_loss = cc.cwnd()
    drive(cc, n_acks=400, start=1.0, spacing=0.005)
    assert after_loss < cc.cwnd() <= 110.0


def test_cubic_ecn_reacts_like_loss():
    cc = Cubic(initial_cwnd=100.0)
    cc.ssthresh = 1.0
    cc.on_ack(ack(1.0, ece=True))
    assert cc.cwnd() < 100.0


def test_cubic_ecn_reduction_once_per_rtt():
    cc = Cubic(initial_cwnd=100.0)
    cc.ssthresh = 1.0
    cc.on_ack(ack(1.0, ece=True))
    w = cc.cwnd()
    cc.on_ack(ack(1.01, ece=True))
    assert cc.cwnd() == pytest.approx(w, rel=0.02)


def test_cubic_timeout_collapses_window():
    cc = Cubic(initial_cwnd=50.0)
    cc.on_timeout(2.0)
    assert cc.cwnd() == cc.min_cwnd()


def test_cubic_clamp_to_cap():
    cc = Cubic(initial_cwnd=50.0)
    cc.clamp_to(10.0)
    assert cc.cwnd() == 10.0


class _ReferenceCubic(Cubic):
    """RFC 8312 written out call by call: what ``Cubic.on_ack`` flattens."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.branches = set()

    def _cubic_target(self, now):
        t = now - self.epoch_start + self._srtt
        return self.origin_point + CUBIC_C * (t - self.k) ** 3

    def _tcp_friendly_window(self, acked_packets):
        self.w_tcp += 3.0 * (1.0 - CUBIC_BETA) / (1.0 + CUBIC_BETA) * (
            acked_packets / max(self._cwnd, 1.0))
        return self.w_tcp

    def on_ack(self, feedback):
        if feedback.rtt is not None:
            self._srtt = 0.875 * self._srtt + 0.125 * feedback.rtt
        if self.react_to_ecn and feedback.ece:
            self.branches.add("ece")
            self._reduce(feedback.now)
            return self.window()
        acked_packets = feedback.bytes_acked / self.mss
        if self._cwnd < self.ssthresh:
            self.branches.add("slow start")
            self._cwnd += acked_packets
            return self.window()
        if self.epoch_start is None:
            self._reset_epoch(feedback.now)
        target = self._cubic_target(feedback.now)
        if target > self._cwnd:
            self.branches.add("toward target")
            self._cwnd += ((target - self._cwnd) / max(self._cwnd, 1.0)
                           * acked_packets)
        else:
            self.branches.add("past target")
            self._cwnd += 0.01 * acked_packets / max(self._cwnd, 1.0)
        if self.tcp_friendliness:
            w_est = self._tcp_friendly_window(acked_packets)
            if w_est > self._cwnd:
                self.branches.add("tcp friendly")
                self._cwnd = w_est
        self._clamp()
        return self.window()


def test_cubic_flat_ack_body_matches_the_rfc_formulas_bit_for_bit():
    rng = random.Random(8)
    script, now = [], 0.0
    for phase, n, ece_every in (("slow start", 40, 0), ("ece", 3, 1),
                                ("avoidance", 600, 0), ("marks", 400, 97),
                                ("long rtt", 300, 0)):
        for i in range(n):
            now += rng.uniform(0.0005, 0.02)
            rtt = rng.choice((None, 0.03, 0.08, 0.4 if phase == "long rtt"
                              else 0.05))
            script.append(ack(now, rtt=rtt,
                              bytes_acked=rng.choice((MTU, MTU, 536)),
                              ece=bool(ece_every) and i % ece_every == 0))
    flat, reference = Cubic(initial_cwnd=2.0), _ReferenceCubic(initial_cwnd=2.0)
    for step, feedback in enumerate(script):
        if step == 700:            # a timeout mid-avoidance, as the sender would
            for cc in (flat, reference):
                cc.on_timeout(feedback.now)
        window = flat.on_ack(feedback)
        assert window == reference.on_ack(feedback) == max(flat.cwnd(), 1.0)
        state = {key: value for key, value in vars(reference).items()
                 if key != "branches"}
        assert vars(flat) == state, step
    assert reference.branches == {"ece", "slow start", "toward target",
                                  "past target", "tcp friendly"}


# ------------------------------------------------------------ Vegas
def test_vegas_increases_when_queue_small():
    cc = Vegas(initial_cwnd=10.0)
    cc._in_slow_start = False
    drive(cc, n_acks=20, rtt=0.1)   # base == actual RTT -> diff 0 < alpha
    assert cc.cwnd() > 10.0


def test_vegas_decreases_when_queue_large():
    cc = Vegas(initial_cwnd=50.0)
    cc._in_slow_start = False
    cc.base_rtt = 0.1
    drive(cc, n_acks=30, rtt=0.2)   # large standing queue -> diff > beta
    assert cc.cwnd() < 50.0


def test_vegas_leaves_slow_start_on_queueing():
    cc = Vegas(initial_cwnd=4.0)
    cc.base_rtt = 0.1
    drive(cc, n_acks=50, rtt=0.25)
    assert not cc._in_slow_start


def test_vegas_loss_is_gentle():
    cc = Vegas(initial_cwnd=40.0)
    cc.on_loss(1.0)
    assert cc.cwnd() == pytest.approx(30.0)


# ------------------------------------------------------------ BBR
def test_bbr_needs_pacing_flag():
    assert BBR.needs_pacing


def test_bbr_estimates_bandwidth_and_exits_startup():
    cc = BBR(initial_cwnd=10.0)
    now = 0.0
    for i in range(300):
        cc.on_ack(ack(now, rtt=0.1, in_flight=20))
        now += 0.004
    assert cc.btl_bw.get() > 0
    assert cc.state != BBR.STARTUP


def test_bbr_cwnd_tracks_bdp():
    cc = BBR()
    cc.btl_bw.update(0.0, 10e6)
    cc.min_rtt.update(0.0, 0.1)
    bdp_packets = 10e6 * 0.1 / (MTU * 8.0)
    assert cc.cwnd() == pytest.approx(cc.cwnd_gain * bdp_packets, rel=0.01)


def test_bbr_pacing_rate_positive_before_samples():
    assert BBR().pacing_rate() > 0


def test_bbr_probe_rtt_clamps_window():
    cc = BBR()
    cc.state = BBR.PROBE_RTT
    assert cc.cwnd() == 4.0


def test_bbr_timeout_restarts_startup():
    cc = BBR()
    cc.state = BBR.PROBE_BW
    cc.on_timeout(1.0)
    assert cc.state == BBR.STARTUP


# ------------------------------------------------------------ Copa
def test_copa_increases_on_empty_queue():
    cc = Copa(initial_cwnd=10.0)
    drive(cc, n_acks=30, rtt=0.1)
    assert cc.cwnd() > 10.0


def test_copa_decreases_when_queuing_delay_large():
    cc = Copa(initial_cwnd=100.0, delta=0.5)
    cc.rtt_min.update(0.0, 0.05)
    drive(cc, n_acks=60, rtt=0.4, start=0.1)
    assert cc.cwnd() < 100.0


def test_copa_velocity_resets_on_direction_change():
    cc = Copa(initial_cwnd=50.0)
    cc.rtt_min.update(0.0, 0.05)
    drive(cc, n_acks=30, rtt=0.05, start=0.0)      # increasing
    drive(cc, n_acks=30, rtt=0.5, start=1.0)       # now decreasing
    assert cc.velocity <= 2.0 or cc._direction == -1


def test_copa_loss_halves():
    cc = Copa(initial_cwnd=40.0)
    cc.on_loss(1.0)
    assert cc.cwnd() == pytest.approx(20.0)


# ------------------------------------------------------------ Sprout
def test_sprout_window_follows_forecast():
    cc = Sprout(initial_cwnd=4.0, target_delay=0.1)
    now = 0.0
    # 10 Mbit/s of ACKed traffic with no queuing delay.
    for _ in range(200):
        cc.on_ack(ack(now, rtt=0.05, bytes_acked=MTU))
        now += 0.0012
    assert cc.forecast_rate_bps() > 1e6
    assert cc.cwnd() > 4.0


def test_sprout_conservative_under_queueing():
    cc = Sprout(initial_cwnd=50.0, target_delay=0.1)
    cc.rtt_min = 0.05
    now = 0.0
    for _ in range(100):
        cc.on_ack(ack(now, rtt=0.3, bytes_acked=MTU))  # heavy queuing
        now += 0.01
    forecast_window = cc.forecast_rate_bps() * 0.1 / 8.0 / MTU
    assert cc.cwnd() == pytest.approx(max(forecast_window, 2.0), rel=0.05)


def test_sprout_timeout_resets():
    cc = Sprout(initial_cwnd=30.0)
    cc.on_timeout(1.0)
    assert cc.cwnd() == cc.min_cwnd()


def test_sprout_forecast_is_recomputed_only_when_its_samples_change(monkeypatch):
    """The forecast is read on every ACK but its samples change at most once
    per 20 ms tick: the memo must equal a fresh percentile after every ACK,
    loss and timeout, at no more than one ``np.percentile`` per sample."""
    percentile, calls = np.percentile, []
    monkeypatch.setattr(np, "percentile",
                        lambda *a, **kw: calls.append(1) or percentile(*a, **kw))

    def fresh(cc):
        rates = [r for _, r in cc._rate_samples]
        return float(percentile(np.array(rates), cc.forecast_percentile)) \
            if rates else 0.0

    rng = random.Random("sprout-memo")
    cc = Sprout()
    recorded = 0
    for i in range(4000):
        now = i * 0.003
        cc.on_ack(ack(now, rtt=0.05, bytes_acked=rng.randrange(40, MTU + 1)))
        recorded += bool(cc._rate_samples) and cc._rate_samples[-1][0] == now
        assert cc.forecast_rate_bps() == fresh(cc)
        if i % 500 == 499:
            cc.on_loss(now)
            assert cc.forecast_rate_bps() == fresh(cc)
        if i % 1500 == 1499:
            cc.on_timeout(now)
            assert cc.forecast_rate_bps() == fresh(cc) == 0.0
    assert recorded > 400                   # ~one per tick; expiry after 2 s
    assert len(cc._rate_samples) < recorded
    assert 0 < len(calls) <= recorded + 1


# ------------------------------------------------------------ Verus
def test_verus_grows_when_delay_low():
    cc = Verus(initial_cwnd=10.0)
    drive(cc, n_acks=50, rtt=0.1)
    assert cc.cwnd() > 10.0


def test_verus_shrinks_when_delay_high():
    cc = Verus(initial_cwnd=50.0)
    cc.rtt_min.update(0.0, 0.05)
    drive(cc, n_acks=100, rtt=0.4, start=0.1, spacing=0.02)
    assert cc.cwnd() < 50.0


def test_verus_loss_reduces():
    cc = Verus(initial_cwnd=40.0)
    cc._smoothed_rtt.update(0.1)
    cc.on_loss(10.0)
    assert cc.cwnd() < 40.0


# ------------------------------------------------------------ PCC Vivace
def test_pcc_is_rate_based():
    assert PCCVivace.needs_pacing
    cc = PCCVivace(initial_rate_bps=2e6)
    assert cc.pacing_rate() > 0
    assert cc.cwnd() >= 4.0


def test_pcc_rate_increases_when_unconstrained():
    cc = PCCVivace(initial_rate_bps=2e6)
    now = 0.0
    initial = cc.base_rate
    # ACK everything promptly with flat RTT: utility rises with rate.
    for i in range(1500):
        cc.on_packet_sent(now, i, MTU, 10)
        cc.on_ack(ack(now + 0.05, rtt=0.05, sent_time=now))
        now += 0.003
    assert cc.base_rate > initial


def test_pcc_timeout_halves_rate():
    cc = PCCVivace(initial_rate_bps=8e6)
    cc.on_timeout(1.0)
    assert cc.base_rate == pytest.approx(4e6)


def test_pcc_utility_penalises_loss():
    from repro.cc.pcc_vivace import _MonitorInterval
    clean = _MonitorInterval(0.0, 0.1, 5e6)
    lossy = _MonitorInterval(0.0, 0.1, 5e6)
    for mi in (clean, lossy):
        mi.bytes_sent = 60 * MTU
        mi.bytes_acked = 60 * MTU
        mi.first_rtt = mi.last_rtt = 0.1
    lossy.losses = 10
    assert clean.utility(9.0, 11.35) > lossy.utility(9.0, 11.35)
