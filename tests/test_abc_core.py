"""Unit tests for the ABC protocol core: params, marking, router, sender."""

import random

import pytest

from repro.core.marking import ProbabilisticMarker, TokenBucketMarker
from repro.core.params import ABCParams, CELLULAR_DEFAULTS, WIFI_DEFAULTS
from repro.core.router import ABCRouterQdisc
from repro.core.sender import ABCWindowControl
from repro.core.stability import is_theoretically_stable
from repro.simulator.packet import ECN, MTU, AckFeedback, Packet

from tests.conftest import abc_sender, generated_specs
from tests.reference import abc_paper


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


def test_token_bucket_tracks_counts():
    marker = TokenBucketMarker()
    for _ in range(10):
        marker.mark(0.5)
    assert marker.accel_count == marker.brake_count == 5


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
# ``dequeue`` evaluates Eq. 1/2 inline and publishes what it used as
# ``last_capacity`` / ``last_queuing_delay`` / ``last_target_rate`` /
# ``last_fraction``; these tests hold those to ``tests/reference/abc_paper.py``
# fed with the capacity, backlog and departures the test itself knows.
def make_router(capacity_bps=10e6, **kwargs) -> ABCRouterQdisc:
    return ABCRouterQdisc(capacity_fn=lambda now: capacity_bps, **kwargs)


def eq1(params, mu, queue_bytes):
    return abc_paper.target_rate(mu, queue_bytes * 8.0, params.eta,
                                 params.delta, params.delay_threshold)


def dequeue_behind(router, queue_packets, now=0.0):
    """Dequeue one packet with ``queue_packets`` left behind it."""
    for i in range(queue_packets + 1):
        router.enqueue(Packet(flow_id=0, seq=i), now)
    assert router.dequeue(now) is not None
    assert router.backlog_packets == queue_packets


def test_target_rate_is_eta_mu_when_queue_empty():
    router = make_router(capacity_bps=10e6)
    dequeue_behind(router, 0)
    assert router.last_target_rate == eq1(router.params, 10e6, 0)
    assert router.last_target_rate == pytest.approx(0.98 * 10e6)


def test_target_rate_reduced_by_queue_above_threshold():
    params = ABCParams(eta=0.98, delta=0.133, delay_threshold=0.02)
    router = ABCRouterQdisc(params=params, capacity_fn=lambda now: 10e6)
    # A standing queue of 100 packets -> x(t) = 100*12000/10e6 = 120 ms.
    dequeue_behind(router, 100)
    expected_x = 100 * MTU * 8 / 10e6
    assert router.last_queuing_delay == expected_x
    expected = 0.98 * 10e6 - 10e6 / 0.133 * (expected_x - 0.02)
    assert router.last_target_rate == eq1(params, 10e6, 100 * MTU)
    assert router.last_target_rate == pytest.approx(expected, rel=1e-6)


def test_target_rate_never_negative():
    router = make_router(capacity_bps=10e6)
    dequeue_behind(router, router.buffer_packets - 1)
    assert router.last_target_rate == 0.0 == eq1(
        router.params, 10e6, (router.buffer_packets - 1) * MTU)


def test_target_rate_ignores_delay_below_threshold():
    params = ABCParams(delay_threshold=0.1)
    router = ABCRouterQdisc(params=params, capacity_fn=lambda now: 10e6)
    dequeue_behind(router, 50)  # 60 ms of queue < 100 ms threshold
    assert router.last_target_rate == eq1(params, 10e6, 50 * MTU)
    assert router.last_target_rate == pytest.approx(0.98 * 10e6)


def test_accel_fraction_is_half_target_over_dequeue_rate():
    router = make_router(capacity_bps=10e6)
    # Dequeue at ~10 Mbit/s, logging the departures the router measures.
    now, log = 0.0, []
    for i in range(100):
        router.enqueue(Packet(flow_id=0, seq=i), now)
        router.dequeue(now)
        log.append((now, MTU))
        last, now = now, now + MTU * 8 / 10e6
    cr = abc_paper.window_rate(log, last, router.params.measurement_window)
    assert router.last_fraction == abc_paper.accel_fraction(
        eq1(router.params, 10e6, 0), cr)
    assert router.last_fraction == pytest.approx(0.5 * 0.98, rel=0.1)


def _cr_reads(departures, mu, after):
    """cr(t) at each departure from ``after`` on, recovered from Eq. 2 as
    the router applied it: f = ½·tr/cr, so cr = ½·tr/f (f stays below 1)."""
    router, reads = make_router(capacity_bps=mu), []
    for seq, now in enumerate(departures):
        router.enqueue(Packet(flow_id=0, seq=seq), now)
        router.dequeue(now)
        if now >= after:
            assert router.last_fraction < 1.0
            reads.append(0.5 * router.last_target_rate / router.last_fraction)
    return reads


def test_cr_reads_departures_spaced_exactly_at_mu():
    """A standing queue departs every MTU·8/µ s (the float sum a busy link
    accumulates); every cr(t) read lies within 0.5 % of µ.  The closed
    window counts N + 1 packets on most departures (N = µ·T/(MTU·8) = 250
    here), so today this holds only because 1/N is 0.4 %."""
    mu, departures, now = 60e6, [], 0.0
    while now < 2.0:
        departures.append(now)
        now += MTU * 8 / mu
    window = make_router().params.measurement_window
    for cr in _cr_reads(departures, mu, after=window):
        assert cr == pytest.approx(mu, rel=0.005)


@pytest.mark.xfail(
    strict=True, reason="ROADMAP item 18: the closed window [now - T, now] "
                        "counts the departing packet, so Poisson departures "
                        "read r + MTU/T (+2 % here)")
def test_cr_reads_poisson_departures_at_their_rate():
    """Departures of a Poisson process at r = 12 Mbit/s (µ·T/(MTU·8) = 50
    per window): the mean cr(t) read at a departure is the rate the
    departures realised over the reads' span, within 0.5 %.  (The link's µ
    is r/2 so that f stays below 1 and cr can be recovered from it.)"""
    rate, rng = 12e6, random.Random(18)
    departures, now = [], 0.0
    while now < 60.0:
        departures.append(now)
        now += rng.expovariate(rate / (MTU * 8))
    reads = _cr_reads(departures, rate / 2, after=1.0)
    read = [now for now in departures if now >= 1.0]
    realised = (len(read) - 1) * MTU * 8 / (read[-1] - read[0])
    assert sum(reads) / len(reads) == pytest.approx(realised, rel=0.005)


def test_accel_fraction_one_when_no_dequeue_history():
    """With nothing measured inside the window (Fig. 2's enqueue basis after
    an idle spell) the router marks accelerate so senders can ramp up."""
    router = make_router(feedback_basis="enqueue")
    router.enqueue(Packet(flow_id=0, seq=0), 0.0)
    router.dequeue(1.0)
    assert router.last_fraction == 1.0 == abc_paper.accel_fraction(
        router.last_target_rate, abc_paper.window_rate(
            [(0.0, MTU)], 1.0, router.params.measurement_window))


def test_accel_fraction_clamped_to_one():
    router = make_router(capacity_bps=100e6)
    now, log = 0.0, []
    for i in range(20):  # dequeue rate far below capacity
        router.enqueue(Packet(flow_id=0, seq=i), now)
        router.dequeue(now)
        log.append((now, MTU))
        last, now = now, now + 0.01
    cr = abc_paper.window_rate(log, last, router.params.measurement_window)
    assert 0.5 * router.last_target_rate / cr > 1.0
    assert router.last_fraction == 1.0 == abc_paper.accel_fraction(
        eq1(router.params, 100e6, 0), cr)


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


def test_router_feedback_basis_validation():
    with pytest.raises(ValueError):
        ABCRouterQdisc(feedback_basis="hybrid")


@pytest.mark.parametrize("feedback_basis", ["dequeue", "enqueue"])
def test_dequeue_matches_the_documented_control_law(feedback_basis):
    """After every dequeue, µ, x, tr and f are Eq. 1/2 of the capacity, the
    backlog and the departure (or admitted-arrival) log the test keeps: the
    inlined arithmetic cannot drift from the equations."""
    from repro.simulator.engine import EventLoop
    from repro.simulator.link import RateLink, SquareWaveRate

    router = ABCRouterQdisc(feedback_basis=feedback_basis, buffer_packets=400)
    # A stock link, so the router's per-timestamp capacity memo is live.
    wave = SquareWaveRate(4e6, 16e6, half_period=0.05)
    RateLink(EventLoop(), wave, qdisc=router)
    params = router.params
    seq, queued, log, checked = 0, 0, [], 0
    for step in range(600):
        now = step * 0.0007
        for _ in range(1 + (step * 7) % 4):          # bursty arrivals
            if router.enqueue(Packet(flow_id=0, seq=seq, ecn=ECN.ACCEL), now):
                queued += MTU
                if feedback_basis == "enqueue":
                    log.append((now, MTU))
            seq += 1
        for _ in range(1 + step % 3):                # same-timestamp dequeues
            if router.dequeue(now) is None:
                break
            queued -= MTU
            if feedback_basis == "dequeue":
                log.append((now, MTU))
            mu = wave.rate_at(now)
            tr = eq1(params, mu, queued)
            cr = abc_paper.window_rate(log, now, params.measurement_window)
            assert (router.last_capacity, router.last_queuing_delay,
                    router.last_target_rate, router.last_fraction) == (
                mu, abc_paper.queuing_delay(queued * 8.0, mu), tr,
                abc_paper.accel_fraction(tr, cr))
            checked += 1
    assert checked > 600
    assert 0 < router.marker.brake_count and 0 < router.marker.accel_count


def test_pk_abc_reads_the_trace_one_lookahead_ahead_while_attached():
    """§6.6: PK-ABC's µ(t) is the opportunity rate over the next
    ``LOOKAHEAD`` of its trace, not the trailing window its link reports;
    detached, it holds nothing of the link."""
    from repro.core.pk_abc import LOOKAHEAD, PKABCRouterQdisc
    from repro.simulator.engine import EventLoop
    from repro.simulator.link import OpportunityLink

    # One MTU every 1 ms for 0.5 s, then every 0.5 ms.
    times = [i * 0.001 for i in range(500)] + [
        0.5 + i * 0.0005 for i in range(1000)]
    router = PKABCRouterQdisc()
    link = OpportunityLink(EventLoop(), times, qdisc=router)
    router.enqueue(Packet(flow_id=0, seq=0, ecn=ECN.ACCEL), 0.45)
    router.dequeue(0.45)
    assert router.last_capacity == link.capacity_in_window(
        0.45, 0.45 + LOOKAHEAD)
    assert router.last_capacity > 1.4 * link.capacity_bps(0.45)
    router.attach(None)
    assert router.capacity_fn is None


def test_pk_abc_on_a_link_without_a_trace_fails_to_build():
    from repro.experiments.runner import single_bottleneck_spec
    from repro.experiments.scenario_spec import build

    with pytest.raises(ValueError, match="PK-ABC"):
        build(single_bottleneck_spec("pk-abc", 12e6, duration=1.0))


# ------------------------------------------------------------ sender window law
def test_sender_accelerate_adds_one_plus_ai():
    cc = abc_sender(10.0)
    cc.on_ack(ack(0.0, accel=True, in_flight=20))
    assert cc.w_abc == pytest.approx(11.0 + 1.0 / 10.0)


def test_sender_brake_subtracts_one_minus_ai():
    cc = abc_sender(10.0)
    cc.on_ack(ack(0.0, accel=False, in_flight=20))
    assert cc.w_abc == pytest.approx(9.0 + 1.0 / 10.0)


def test_sender_without_ai_is_pure_mimd():
    params = ABCParams(additive_increase=False)
    cc = abc_sender(10.0, params=params)
    cc.on_ack(ack(0.0, accel=True, in_flight=20))
    assert cc.w_abc == pytest.approx(11.0)


def test_sender_all_accelerates_double_window_in_one_rtt():
    cc = abc_sender(10.0, params=ABCParams(additive_increase=False))
    for i in range(10):
        cc.on_ack(ack(i * 0.01, accel=True, in_flight=40))
    assert cc.w_abc == pytest.approx(20.0)


def test_sender_all_brakes_empty_window_in_one_rtt():
    cc = abc_sender(10.0, params=ABCParams(additive_increase=False))
    for i in range(10):
        cc.on_ack(ack(i * 0.01, accel=False, in_flight=40))
    assert cc.w_abc == cc.min_cwnd()


def test_sender_window_never_below_min():
    cc = abc_sender(2.0)
    for i in range(50):
        cc.on_ack(ack(i * 0.01, accel=False, in_flight=10))
    assert cc.w_abc >= cc.min_cwnd()


def test_sender_effective_window_is_min_of_both():
    cc = abc_sender(10.0)
    cc.w_abc = 50.0
    cc.cubic._cwnd = 20.0
    assert cc.cwnd() == 20.0
    cc.cubic._cwnd = 80.0
    assert cc.cwnd() == 50.0


def test_sender_windows_capped_at_twice_in_flight():
    cc = abc_sender(10.0)
    cc.w_abc = 500.0
    cc.cubic._cwnd = 400.0
    cc.on_ack(ack(0.0, accel=True, in_flight=20))
    assert cc.w_abc <= 2 * 21
    assert cc.w_nonabc <= 2 * 21


def test_sender_loss_only_affects_cubic_window():
    cc = abc_sender(10.0)
    cc.w_abc = 40.0
    cc.cubic._cwnd = 40.0
    cc.cubic.ssthresh = 1.0
    cc.on_loss(1.0)
    assert cc.w_abc == 40.0
    assert cc.w_nonabc < 40.0


def test_sender_ece_reduces_cubic_window():
    cc = abc_sender(10.0)
    cc.cubic._cwnd = 40.0
    cc.cubic.ssthresh = 1.0
    cc.on_ack(ack(1.0, accel=True, ece=True, in_flight=30))
    assert cc.w_nonabc < 40.0


def test_sender_timeout_halves_abc_window():
    cc = abc_sender(10.0)
    cc.w_abc = 30.0
    cc.on_timeout(1.0)
    assert cc.w_abc == pytest.approx(15.0)


def test_sender_tracks_accel_fraction():
    cc = ABCWindowControl()
    cc.on_ack(ack(0.0, accel=True))
    cc.on_ack(ack(0.01, accel=False))
    assert cc.observed_accel_fraction == pytest.approx(0.5)


def test_sender_uses_abc_flag():
    assert ABCWindowControl().uses_abc


def test_steady_state_window_matches_fairness_argument():
    """§3.1.3: in steady state 2f + 1/w = 1, so w = 1/(1 - 2f)."""
    cc = abc_sender(5.0)
    f = 0.45
    marker = TokenBucketMarker()
    now = 0.0
    for _ in range(8000):
        cc.on_ack(ack(now, accel=marker.mark(f), in_flight=1000))
        now += 0.001
    expected = 1.0 / (1.0 - 2.0 * f)
    assert cc.w_abc == pytest.approx(expected, rel=0.2)


# ------------------------------------------------------------ invariants on generated specs
def _abc_specs():
    """The generated specs that put an ABC router on the path; then the
    single-queue router and the dual queue (with a Cubic flow beside the
    ABC ones) on every link of a generated spec with a constant, a
    square-wave and a trace-driven bottleneck; then every link of a
    two-link spec an ABC router, so packets reach the second one braked."""
    from dataclasses import replace

    from repro.experiments.scenario_spec import FlowSpec

    def routed(spec, qdisc, flows):
        return replace(spec, scheme="abc", flows=flows, links=[
            replace(link, role="bottleneck", qdisc=qdisc)
            for link in spec.links])

    generated = generated_specs()
    specs = [spec for spec in generated
             if spec.scheme in ("abc", "abc-enqueue", "pk-abc")]
    for kind in ("constant", "square", "cellular"):
        spec = next(spec for spec in generated if spec.links[0].kind == kind)
        specs.append(routed(spec, None, spec.flows))
        specs.append(routed(spec, "maxmin",
                            spec.flows + [FlowSpec(cc="cubic")]))
    spec = next(spec for spec in generated if len(spec.links) > 1)
    specs.append(routed(spec, None, spec.flows))
    return specs


def _watch_abc(built, seen):
    """Check the router and sender invariants at every dequeue of every ABC
    router (a dual queue's embedded one too) and after every ABC ACK, by
    wrapping the methods on the instances; ``seen`` counts what was checked."""
    from repro.core.coexistence import DualQueueABCQdisc

    for link in built.scenario.links:
        router = link.qdisc
        if isinstance(router, DualQueueABCQdisc):
            router = router.abc_queue
        if not isinstance(router, ABCRouterQdisc):
            continue
        # ConstantRate, SquareWaveRate or the trace-driven OpportunityLink.
        key = (type(link.qdisc).__name__,
               type(getattr(link, "capacity", link)).__name__)
        seen[key] += 0                  # a router that never dequeues fails
        braked = set()

        def enqueue(packet, now, inner=router.enqueue, braked=braked):
            admitted = inner(packet, now)
            if admitted and packet.ecn is ECN.BRAKE:
                braked.add(id(packet))
            return admitted

        def dequeue(now, router=router, inner=router.dequeue, braked=braked,
                    key=key):
            packet = inner(now)
            if packet is not None and id(packet) in braked:
                braked.discard(id(packet))
                assert packet.ecn is ECN.BRAKE, "a brake was upgraded"
                seen["arrived braked"] += 1
            marker = router.marker
            assert 0.0 <= marker.token <= marker.token_limit, marker.token
            assert router.last_target_rate >= 0.0, router.last_target_rate
            assert 0.0 <= router.last_fraction <= 1.0, router.last_fraction
            seen[key] += 1
            return packet

        router.enqueue, router.dequeue = enqueue, dequeue
    for flow in built.flows:
        cc = flow.cc
        if isinstance(cc, ABCWindowControl):
            def on_ack(feedback, cc=cc, inner=cc.on_ack):
                window = inner(feedback)
                assert cc.w_abc >= cc.min_cwnd(), cc.w_abc
                seen["abc acks"] += 1
                return window

            cc.on_ack = on_ack


def test_abc_invariants_hold_on_generated_specs():
    """A packet that arrived braked leaves braked, the token stays in
    [0, token_limit], the target rate is never negative and the fraction is
    in [0, 1] at every dequeue of every ABC router, and ``w_abc`` never falls
    below ``min_cwnd()`` after any ABC ACK, on generated scenarios."""
    import collections

    from repro.experiments.scenario_spec import build

    seen = collections.Counter()
    for spec in _abc_specs():
        built = build(spec)
        _watch_abc(built, seen)
        built.scenario.run(spec.duration)
    routers = {key for key in seen if isinstance(key, tuple)}
    assert routers >= {(qdisc, kind) for qdisc in ("ABCRouterQdisc",
                                                   "DualQueueABCQdisc")
                       for kind in ("ConstantRate", "SquareWaveRate",
                                    "OpportunityLink")}
    assert all(seen[key] > 100 for key in routers), seen
    assert seen["arrived braked"] > 100 and seen["abc acks"] > 1000, seen
