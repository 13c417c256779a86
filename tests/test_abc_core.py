"""Unit tests for the ABC protocol core: params, marking, router, sender."""

import math

import pytest

from repro.core.marking import ProbabilisticMarker, TokenBucketMarker
from repro.core.params import ABCParams, CELLULAR_DEFAULTS, WIFI_DEFAULTS
from repro.core.router import ABCRouterQdisc
from repro.core.sender import ABCWindowControl
from repro.core.stability import is_theoretically_stable
from repro.simulator.packet import ECN, MTU, AckFeedback, Packet


def ack(now, accel=True, rtt=0.1, bytes_acked=MTU, ece=False, in_flight=10):
    return AckFeedback(now=now, rtt=rtt, bytes_acked=bytes_acked, accel=accel,
                       ece=ece, packets_in_flight=in_flight)


# ------------------------------------------------------------ params
def test_default_params_match_paper_evaluation():
    assert CELLULAR_DEFAULTS.eta == pytest.approx(0.98)
    assert CELLULAR_DEFAULTS.delta == pytest.approx(0.133)


def test_params_validation():
    with pytest.raises(ValueError):
        ABCParams(eta=0.0)
    with pytest.raises(ValueError):
        ABCParams(eta=1.5)
    with pytest.raises(ValueError):
        ABCParams(delta=0.0)
    with pytest.raises(ValueError):
        ABCParams(delay_threshold=-0.1)
    with pytest.raises(ValueError):
        ABCParams(token_limit=0.5)
    with pytest.raises(ValueError):
        ABCParams(window_cap_factor=0.5)


def test_params_stability_helper():
    delta = CELLULAR_DEFAULTS.delta
    assert is_theoretically_stable(delta, 0.1)        # 0.133 > 0.0667
    assert not is_theoretically_stable(delta, 0.3)    # 0.133 < 0.2


def test_params_with_overrides():
    p = CELLULAR_DEFAULTS.with_overrides(delay_threshold=0.05)
    assert p.delay_threshold == 0.05
    assert p.eta == CELLULAR_DEFAULTS.eta
    assert WIFI_DEFAULTS.delay_threshold > CELLULAR_DEFAULTS.delay_threshold


# ------------------------------------------------------------ marking
def test_token_bucket_never_exceeds_fraction():
    marker = TokenBucketMarker()
    fraction = 0.37
    marks = sum(marker.mark(fraction) for _ in range(10_000))
    assert marks / 10_000 <= fraction + 1e-9


def test_token_bucket_achieves_fraction_asymptotically():
    marker = TokenBucketMarker()
    fraction = 0.5
    marks = sum(marker.mark(fraction) for _ in range(10_000))
    assert marks / 10_000 == pytest.approx(fraction, abs=0.01)


def test_token_bucket_all_accelerate_at_fraction_one():
    marker = TokenBucketMarker()
    assert all(marker.mark(1.0) for _ in range(100))


def test_token_bucket_all_brake_at_fraction_zero():
    marker = TokenBucketMarker()
    assert not any(marker.mark(0.0) for _ in range(100))


def test_token_bucket_token_capped():
    marker = TokenBucketMarker(token_limit=2.0)
    for _ in range(50):
        marker.mark(1.0)
    assert marker.token <= 2.0


def test_token_bucket_tracks_counts_and_reset():
    marker = TokenBucketMarker()
    for _ in range(10):
        marker.mark(0.5)
    assert marker.accel_count + marker.brake_count == 10
    assert 0.0 < marker.accel_fraction < 1.0
    marker.reset()
    assert marker.accel_count == 0 and marker.token == 0.0


def test_token_bucket_validation():
    with pytest.raises(ValueError):
        TokenBucketMarker(token_limit=0.5)


def test_probabilistic_marker_approximates_fraction():
    marker = ProbabilisticMarker(seed=1)
    marks = sum(marker.mark(0.3) for _ in range(20_000))
    assert marks / 20_000 == pytest.approx(0.3, abs=0.02)


def test_token_bucket_less_bursty_than_probabilistic():
    from repro.experiments.feedback import marking_burstiness
    stats = marking_burstiness(fraction=0.4, packets=4000)
    assert stats["token_gap_variance"] < stats["probabilistic_gap_variance"]
    assert stats["token_fraction"] <= 0.4 + 1e-9


# ------------------------------------------------------------ router control law
def make_router(capacity_bps=10e6, **kwargs) -> ABCRouterQdisc:
    return ABCRouterQdisc(capacity_fn=lambda now: capacity_bps, **kwargs)


def test_target_rate_is_eta_mu_when_queue_empty():
    router = make_router(capacity_bps=10e6)
    assert router.target_rate(0.0) == pytest.approx(0.98 * 10e6)


def test_target_rate_reduced_by_queue_above_threshold():
    params = ABCParams(eta=0.98, delta=0.133, delay_threshold=0.02)
    router = ABCRouterQdisc(params=params, capacity_fn=lambda now: 10e6)
    # Build a standing queue of 100 packets -> x(t) = 100*12000/10e6 = 120 ms.
    for i in range(100):
        router.enqueue(Packet(flow_id=0, seq=i), 0.0)
    expected_x = 100 * MTU * 8 / 10e6
    expected = 0.98 * 10e6 - 10e6 / 0.133 * (expected_x - 0.02)
    assert router.target_rate(0.0) == pytest.approx(expected, rel=1e-6)


def test_target_rate_never_negative():
    router = make_router(capacity_bps=10e6)
    for i in range(10_000):
        if not router.enqueue(Packet(flow_id=0, seq=i), 0.0):
            break
    assert router.target_rate(0.0) >= 0.0


def test_target_rate_ignores_delay_below_threshold():
    params = ABCParams(delay_threshold=0.1)
    router = ABCRouterQdisc(params=params, capacity_fn=lambda now: 10e6)
    for i in range(50):  # 60 ms of queue < 100 ms threshold
        router.enqueue(Packet(flow_id=0, seq=i), 0.0)
    assert router.target_rate(0.0) == pytest.approx(0.98 * 10e6)


def test_accel_fraction_is_half_target_over_dequeue_rate():
    router = make_router(capacity_bps=10e6)
    # Prime the dequeue-rate estimator at ~10 Mbit/s.
    now = 0.0
    for i in range(100):
        router.enqueue(Packet(flow_id=0, seq=i), now)
        router.dequeue(now)
        now += MTU * 8 / 10e6
    fraction = router.accel_fraction(now)
    assert fraction == pytest.approx(0.5 * 0.98, rel=0.1)


def test_accel_fraction_one_when_no_dequeue_history():
    router = make_router()
    assert router.accel_fraction(0.0) == 1.0


def test_accel_fraction_clamped_to_one():
    router = make_router(capacity_bps=100e6)
    now = 0.0
    for i in range(20):  # dequeue rate far below capacity
        router.enqueue(Packet(flow_id=0, seq=i), now)
        router.dequeue(now)
        now += 0.01
    assert router.accel_fraction(now) == 1.0


def test_router_marks_only_accelerate_packets():
    router = make_router(capacity_bps=1e6)
    now = 0.0
    # Saturate so that the fraction is below 1 and brakes appear.
    for i in range(200):
        router.enqueue(Packet(flow_id=0, seq=i, ecn=ECN.ACCEL), now)
    outcomes = set()
    for _ in range(200):
        pkt = router.dequeue(now)
        outcomes.add(pkt.ecn)
        now += 0.001
    assert ECN.BRAKE in outcomes
    assert outcomes <= {ECN.ACCEL, ECN.BRAKE}


def test_router_leaves_non_abc_packets_untouched():
    router = make_router(capacity_bps=1e6)
    now = 0.0
    for i in range(100):
        router.enqueue(Packet(flow_id=0, seq=i, ecn=ECN.NOT_ECT), now)
    for _ in range(100):
        pkt = router.dequeue(now)
        assert pkt.ecn == ECN.NOT_ECT
        now += 0.001


def test_router_never_upgrades_brake_to_accelerate():
    router = make_router(capacity_bps=100e6)  # high capacity -> f = 1
    router.enqueue(Packet(flow_id=0, seq=0, ecn=ECN.BRAKE), 0.0)
    assert router.dequeue(0.0).ecn == ECN.BRAKE


def test_router_drops_when_buffer_full():
    router = ABCRouterQdisc(buffer_packets=10, capacity_fn=lambda now: 1e6)
    for i in range(20):
        router.enqueue(Packet(flow_id=0, seq=i), 0.0)
    assert router.dropped_packets == 10


def test_router_capacity_share_scales_target():
    router = make_router(capacity_bps=10e6, capacity_share=0.5)
    assert router.target_rate(0.0) == pytest.approx(0.98 * 5e6)
    with pytest.raises(ValueError):
        make_router(capacity_share=0.0)


def test_router_feedback_basis_validation():
    with pytest.raises(ValueError):
        ABCRouterQdisc(feedback_basis="hybrid")
    with pytest.raises(ValueError):
        ABCRouterQdisc(delay_mode="weird")


def test_router_sojourn_delay_mode():
    router = ABCRouterQdisc(capacity_fn=lambda now: 10e6, delay_mode="sojourn")
    router.enqueue(Packet(flow_id=0, seq=0), 0.0)
    assert router.queuing_delay_estimate(0.5, 10e6) == pytest.approx(0.5)


@pytest.mark.parametrize("feedback_basis", ["dequeue", "enqueue"])
@pytest.mark.parametrize("delay_mode", ["standing", "sojourn"])
def test_dequeue_matches_the_documented_control_law(delay_mode, feedback_basis):
    """``dequeue`` evaluates Eq. 1/2 inline; ``target_rate`` /
    ``accel_fraction`` are the documented form.  After every dequeue the two
    must agree exactly on the same router state, so the inlined arithmetic
    cannot drift from the equations."""
    from repro.simulator.engine import EventLoop
    from repro.simulator.link import RateLink, SquareWaveRate

    router = ABCRouterQdisc(delay_mode=delay_mode,
                            feedback_basis=feedback_basis, buffer_packets=400)
    # Attached to a stock link, so the per-timestamp capacity memo is live.
    RateLink(EventLoop(), SquareWaveRate(4e6, 16e6, half_period=0.05),
             qdisc=router)
    seq = 0
    checked = 0
    for step in range(600):
        now = step * 0.0007
        for _ in range(1 + (step * 7) % 4):          # bursty arrivals
            router.enqueue(Packet(flow_id=0, seq=seq, ecn=ECN.ACCEL), now)
            seq += 1
        for _ in range(1 + step % 3):                # same-timestamp dequeues
            if router.dequeue(now) is None:
                break
            inline = (router.last_target_rate, router.last_fraction,
                      router.last_capacity, router.last_queuing_delay)
            assert router.accel_fraction(now) == inline[1]
            assert router.target_rate(now) == inline[0]
            assert (router.last_capacity, router.last_queuing_delay) == inline[2:]
            checked += 1
    assert checked > 600
    assert 0 < router.brake_marked and 0 < router.accel_marked


# ------------------------------------------------------------ sender window law
def test_sender_accelerate_adds_one_plus_ai():
    cc = ABCWindowControl(initial_cwnd=10.0, dual_window=False)
    cc.on_ack(ack(0.0, accel=True, in_flight=20))
    assert cc.w_abc == pytest.approx(11.0 + 1.0 / 10.0)


def test_sender_brake_subtracts_one_minus_ai():
    cc = ABCWindowControl(initial_cwnd=10.0, dual_window=False)
    cc.on_ack(ack(0.0, accel=False, in_flight=20))
    assert cc.w_abc == pytest.approx(9.0 + 1.0 / 10.0)


def test_sender_without_ai_is_pure_mimd():
    params = ABCParams(additive_increase=False)
    cc = ABCWindowControl(params=params, initial_cwnd=10.0, dual_window=False)
    cc.on_ack(ack(0.0, accel=True, in_flight=20))
    assert cc.w_abc == pytest.approx(11.0)


def test_sender_all_accelerates_double_window_in_one_rtt():
    cc = ABCWindowControl(params=ABCParams(additive_increase=False),
                          initial_cwnd=10.0, dual_window=False)
    for i in range(10):
        cc.on_ack(ack(i * 0.01, accel=True, in_flight=40))
    assert cc.w_abc == pytest.approx(20.0)


def test_sender_all_brakes_empty_window_in_one_rtt():
    cc = ABCWindowControl(params=ABCParams(additive_increase=False),
                          initial_cwnd=10.0, dual_window=False)
    for i in range(10):
        cc.on_ack(ack(i * 0.01, accel=False, in_flight=40))
    assert cc.w_abc == cc.min_cwnd()


def test_sender_window_never_below_min():
    cc = ABCWindowControl(initial_cwnd=2.0, dual_window=False)
    for i in range(50):
        cc.on_ack(ack(i * 0.01, accel=False, in_flight=10))
    assert cc.w_abc >= cc.min_cwnd()


def test_sender_effective_window_is_min_of_both():
    cc = ABCWindowControl(initial_cwnd=10.0, dual_window=True)
    cc.w_abc = 50.0
    cc.cubic._cwnd = 20.0
    assert cc.cwnd() == 20.0
    cc.cubic._cwnd = 80.0
    assert cc.cwnd() == 50.0


def test_sender_windows_capped_at_twice_in_flight():
    cc = ABCWindowControl(initial_cwnd=10.0)
    cc.w_abc = 500.0
    cc.cubic._cwnd = 400.0
    cc.on_ack(ack(0.0, accel=True, in_flight=20))
    assert cc.w_abc <= 2 * 21
    assert cc.w_nonabc <= 2 * 21


def test_sender_loss_only_affects_cubic_window():
    cc = ABCWindowControl(initial_cwnd=10.0)
    cc.w_abc = 40.0
    cc.cubic._cwnd = 40.0
    cc.cubic.ssthresh = 1.0
    cc.on_loss(1.0)
    assert cc.w_abc == 40.0
    assert cc.w_nonabc < 40.0


def test_sender_without_dual_window_has_infinite_nonabc():
    cc = ABCWindowControl(dual_window=False)
    assert math.isinf(cc.w_nonabc)
    cc.on_loss(1.0)  # must not raise


def test_sender_ece_reduces_cubic_window():
    cc = ABCWindowControl(initial_cwnd=10.0)
    cc.cubic._cwnd = 40.0
    cc.cubic.ssthresh = 1.0
    cc.on_ack(ack(1.0, accel=True, ece=True, in_flight=30))
    assert cc.w_nonabc < 40.0


def test_sender_timeout_halves_abc_window():
    cc = ABCWindowControl(initial_cwnd=10.0, dual_window=False)
    cc.w_abc = 30.0
    cc.on_timeout(1.0)
    assert cc.w_abc == pytest.approx(15.0)


def test_sender_tracks_accel_fraction():
    cc = ABCWindowControl(dual_window=False)
    cc.on_ack(ack(0.0, accel=True))
    cc.on_ack(ack(0.01, accel=False))
    assert cc.observed_accel_fraction == pytest.approx(0.5)


def test_sender_uses_abc_flag():
    assert ABCWindowControl().uses_abc


def test_steady_state_window_matches_fairness_argument():
    """§3.1.3: in steady state 2f + 1/w = 1, so w = 1/(1 - 2f)."""
    cc = ABCWindowControl(initial_cwnd=5.0, dual_window=False)
    f = 0.45
    marker = TokenBucketMarker()
    now = 0.0
    for _ in range(8000):
        cc.on_ack(ack(now, accel=marker.mark(f), in_flight=1000))
        now += 0.001
    expected = 1.0 / (1.0 - 2.0 * f)
    assert cc.w_abc == pytest.approx(expected, rel=0.2)
