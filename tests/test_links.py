"""Tests for capacity models and the rate/opportunity link implementations."""

import math
import random

import pytest

from repro.simulator.engine import EventLoop
from repro.simulator.link import (CAPACITY_WINDOW, ConstantRate,
                                  OpportunityLink, RateLink, SquareWaveRate,
                                  SteppedRate)
from repro.simulator.packet import MTU, Packet
from repro.simulator.qdisc import FifoQdisc


class Collector:
    def __init__(self):
        self.packets = []

    def receive(self, packet):
        self.packets.append(packet)


# ------------------------------------------------------------ capacity models
def test_constant_rate_model():
    model = ConstantRate(8e6)
    assert model.rate_at(0.0) == 8e6
    assert model.bits_between(0.0, 2.0) == pytest.approx(16e6)


def test_constant_rate_rejects_non_positive():
    with pytest.raises(ValueError):
        ConstantRate(0.0)


#: Values a link would add to ``now`` unguarded (EventLoop.push), so every
#: constructor that takes one rejects them.
NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
def test_constant_rate_rejects_non_finite(value):
    with pytest.raises(ValueError):
        ConstantRate(value)


def test_stepped_rate_lookup():
    model = SteppedRate([(0.0, 1e6), (5.0, 2e6), (10.0, 4e6)])
    assert model.rate_at(0.0) == 1e6
    assert model.rate_at(4.999) == 1e6
    assert model.rate_at(5.0) == 2e6
    assert model.rate_at(20.0) == 4e6


def test_stepped_rate_bits_between_spans_steps():
    model = SteppedRate([(0.0, 1e6), (1.0, 3e6)])
    assert model.bits_between(0.0, 2.0) == pytest.approx(4e6)
    assert model.bits_between(2.0, 2.0) == 0.0


def test_stepped_rate_validation():
    with pytest.raises(ValueError):
        SteppedRate([])
    with pytest.raises(ValueError):
        SteppedRate([(1.0, 1e6), (0.5, 2e6)])
    with pytest.raises(ValueError):
        SteppedRate([(0.0, -1.0)])


@pytest.mark.parametrize("value", NON_FINITE)
def test_stepped_rate_rejects_non_finite(value):
    with pytest.raises(ValueError):
        SteppedRate([(0.0, 1e6), (1.0, value)])


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", ["low_bps", "high_bps", "half_period"])
def test_square_wave_rejects_non_finite(field, value):
    kwargs = {"low_bps": 12e6, "high_bps": 24e6, "half_period": 0.5}
    with pytest.raises(ValueError):
        SquareWaveRate(**{**kwargs, field: value})


def test_square_wave_alternates():
    model = SquareWaveRate(12e6, 24e6, half_period=0.5)
    assert model.rate_at(0.25) == 24e6
    assert model.rate_at(0.75) == 12e6
    assert model.rate_at(1.25) == 24e6


# ------------------------------------- closed forms vs generic integration
def _generic_bits_between(model, t0, t1, step=0.0001):
    """The CapacityModel base-class integrator, at a finer step so it can
    serve as the numerical reference for the closed forms."""
    if t1 <= t0:
        return 0.0
    total = 0.0
    t = t0
    while t < t1:
        dt = min(step, t1 - t)
        total += model.rate_at(t) * dt
        t += dt
    return total


@pytest.mark.parametrize("t0,t1", [
    (0.0, 0.3), (0.0, 0.5), (0.0, 1.0), (0.2, 0.4), (0.3, 1.7),
    (0.5, 2.5), (1.25, 7.75), (0.0, 10.0), (3.0, 3.0),
])
def test_square_wave_closed_form_matches_integration(t0, t1):
    for start_low in (False, True):
        model = SquareWaveRate(12e6, 24e6, half_period=0.5,
                               start_low=start_low)
        assert model.bits_between(t0, t1) == pytest.approx(
            _generic_bits_between(model, t0, t1), rel=1e-3)


def test_square_wave_closed_form_is_additive():
    model = SquareWaveRate(5e6, 20e6, half_period=0.4)
    whole = model.bits_between(0.0, 6.0)
    split = sum(model.bits_between(i * 0.3, (i + 1) * 0.3) for i in range(20))
    assert split == pytest.approx(whole, rel=1e-12)


@pytest.mark.parametrize("t0,t1", [
    (0.0, 12.0), (0.5, 4.5), (4.9, 5.1), (6.0, 25.0), (11.0, 30.0),
])
def test_stepped_rate_bits_between_matches_integration(t0, t1):
    model = SteppedRate([(0.0, 1e6), (5.0, 2e6), (10.0, 4e6)])
    assert model.bits_between(t0, t1) == pytest.approx(
        _generic_bits_between(model, t0, t1), rel=1e-3)


def test_square_wave_start_low():
    model = SquareWaveRate(12e6, 24e6, half_period=0.5, start_low=True)
    assert model.rate_at(0.0) == 12e6


# ------------------------------------------------------------ rate link
def test_rate_link_transmission_time():
    env = EventLoop()
    sink = Collector()
    link = RateLink(env, ConstantRate(12e6), qdisc=FifoQdisc())
    link.connect(0, (0.0, sink.receive, False))
    link.send(Packet(flow_id=0, seq=0, size=1500))
    env.run()
    # 1500 B at 12 Mbit/s = 1 ms
    assert env.now == pytest.approx(0.001)
    assert len(sink.packets) == 1


def test_rate_link_serialises_back_to_back_packets():
    env = EventLoop()
    sink = Collector()
    link = RateLink(env, ConstantRate(12e6), qdisc=FifoQdisc())
    link.connect(0, (0.0, sink.receive, False))
    for i in range(3):
        link.send(Packet(flow_id=0, seq=i, size=1500))
    env.run()
    assert env.now == pytest.approx(0.003)
    assert [p.seq for p in sink.packets] == [0, 1, 2]


def test_rate_link_drop_counted():
    env = EventLoop()
    link = RateLink(env, ConstantRate(1e6), qdisc=FifoQdisc(buffer_packets=1))
    link.connect(0, (0.0, Collector().receive, False))
    for i in range(5):
        link.send(Packet(flow_id=0, seq=i))
    # One in service slot has been dequeued; one queued; the rest dropped.
    assert link.dropped_packets >= 2


def test_rate_link_capacity_and_offered_bits():
    env = EventLoop()
    link = RateLink(env, ConstantRate(5e6), qdisc=FifoQdisc())
    assert link.capacity_bps(3.0) == 5e6
    assert link.offered_bits(0.0, 2.0) == pytest.approx(10e6)


# ------------------------------------------------ rate link: capacity cache
def _edge_near(model, guess, before):
    """The first float near ``guess`` at which ``model.rate_at`` leaves
    ``before``, found from ``rate_at`` alone."""
    edge = guess
    while model.rate_at(edge) == before:
        edge = math.nextafter(edge, math.inf)
    while model.rate_at(math.nextafter(edge, -math.inf)) != before:
        edge = math.nextafter(edge, -math.inf)
    return edge


def _cache_cases():
    """``(model, [(inside, edge)])``: a time inside each stretch of constant
    rate and the edge that ends it (a constant link gets arbitrary ones)."""
    cases = []
    metro = [random.Random(seed).uniform(0.3, 0.7) for seed in range(4)]
    for h in [0.3, 0.7, 0.5] + metro:
        for start_low in (False, True):
            model = SquareWaveRate(6e6, 13e6, h, start_low=start_low)
            cases.append((model, [
                (k * h + h / 2, _edge_near(model, (k + 1) * h,
                                           model.rate_at(k * h + h / 2)))
                for k in range(24)]))
    steps = [(0.0, 3e6), (0.3, 9e6), (0.7, 5e6), (1.1, 12e6), (2.9, 4e6)]
    cases.append((SteppedRate(steps), [
        ((t0 + t1) / 2, t1) for (t0, _), (t1, _) in zip(steps, steps[1:])]))
    cases.append((ConstantRate(7e6), [(0.1 * k + 0.05, 0.1 * k + 0.1)
                                      for k in range(10)]))
    return cases


@pytest.mark.parametrize("model,stretches", _cache_cases())
def test_rate_link_cached_capacity_is_exact_at_every_edge(model, stretches):
    """capacity_bps answers from the cached (rate, from, until): read inside
    each stretch, one ulp before its edge, at it and one ulp after, in
    increasing and then in decreasing time order."""
    link = RateLink(EventLoop(), model, qdisc=FifoQdisc())
    reads = []
    for inside, edge in stretches:
        reads += [inside, math.nextafter(edge, -math.inf), edge,
                  math.nextafter(edge, math.inf)]
    for now in reads + reads[::-1]:
        assert link.capacity_bps(now) == model.rate_at(now), now


@pytest.mark.parametrize("ulps", [-1, 0, 1])
@pytest.mark.parametrize("model,stretches", _cache_cases())
def test_rate_link_transmission_reads_the_rate_at_its_start(
        model, stretches, ulps):
    """A packet sent to an idle link inside a stretch warms the cache; one
    sent ``ulps`` from the stretch's edge must be timed by the new rate."""
    env = EventLoop()
    link = RateLink(env, model, qdisc=FifoQdisc())
    sends = []
    for inside, edge in stretches:
        for _ in range(abs(ulps)):
            edge = math.nextafter(edge, math.copysign(math.inf, ulps))
        sends += [inside, edge]
    for seq, t in enumerate(sends):
        env.post_at(t, link.send, Packet(flow_id=0, seq=seq, size=MTU))
    env.run()
    assert link.departure_times == [t + MTU * 8.0 / model.rate_at(t)
                                    for t in sends]


def test_rate_link_back_to_back_transmissions_cross_edges_exactly():
    """Rates whose MTU time is a power of two put back-to-back departures,
    and so the next packet's start, exactly on the 0.5 s edges."""
    model = SquareWaveRate(MTU * 8 * 512, MTU * 8 * 1024, 0.5)
    env = EventLoop()
    link = RateLink(env, model, qdisc=FifoQdisc(buffer_packets=4000))
    for seq in range(3000):
        link.send(Packet(flow_id=0, seq=seq, size=MTU))
    env.run()
    expected, now = [], 0.0
    for _ in range(3000):
        now += MTU * 8.0 / model.rate_at(now)
        expected.append(now)
    assert 0.5 in expected and 1.5 in expected
    assert link.departure_times == expected


# ------------------------------------------------------------ opportunity link
def test_opportunity_link_delivers_on_schedule():
    env = EventLoop()
    sink = Collector()
    times = [0.01, 0.02, 0.03, 0.04]
    link = OpportunityLink(env, times, qdisc=FifoQdisc())
    link.connect(0, (0.0, sink.receive, False))
    for i in range(2):
        link.send(Packet(flow_id=0, seq=i, size=MTU))
    link.start()
    env.run(until=0.025)
    assert len(sink.packets) == 2
    assert env.now == pytest.approx(0.025)


def test_opportunity_link_wasted_opportunities_when_idle():
    env = EventLoop()
    sink = Collector()
    link = OpportunityLink(env, [0.01, 0.02], qdisc=FifoQdisc())
    link.connect(0, (0.0, sink.receive, False))
    link.start()
    env.run(until=0.05)
    assert sink.packets == []


def test_opportunity_link_small_packets_share_an_opportunity():
    env = EventLoop()
    sink = Collector()
    link = OpportunityLink(env, [0.01], qdisc=FifoQdisc())
    link.connect(0, (0.0, sink.receive, False))
    for i in range(3):
        link.send(Packet(flow_id=0, seq=i, size=400))
    link.start()
    env.run(until=0.015)
    assert len(sink.packets) == 3  # 3 x 400 B fit in one 1500 B opportunity


def test_opportunity_link_trace_wraps_around():
    env = EventLoop()
    sink = Collector()
    link = OpportunityLink(env, [0.5, 1.0], qdisc=FifoQdisc(buffer_packets=10))
    link.connect(0, (0.0, sink.receive, False))
    for i in range(4):
        link.send(Packet(flow_id=0, seq=i))
    link.start()
    env.run(until=2.1)
    # Opportunities at 0.5, 1.0, then wrap: 1.5, 2.0.
    assert len(sink.packets) == 4


@pytest.mark.xfail(strict=True, reason=(
    "known defect: the replay period is times[-1], so a trace with an "
    "opportunity at 0 and one at its span offers both at every wrap; the "
    "fix moves every trace-driven result"))
def test_trace_replay_offers_each_opportunity_once_per_cycle():
    """A 3-entry trace replayed for two cycles is 6 opportunities at 6
    distinct instants (a backlogged queue sends one MTU per opportunity)."""
    env = EventLoop()
    link = OpportunityLink(env, [0.0, 0.1, 0.2], qdisc=FifoQdisc(100))
    link.connect(0, (0.0, Collector().receive, False))
    for i in range(50):
        link.send(Packet(flow_id=0, seq=i, size=MTU))
    env.run(until=1.0)
    first_two_cycles = link.departure_times[:6]
    assert len(set(first_two_cycles)) == 6, first_two_cycles


def test_opportunity_link_capacity_window():
    env = EventLoop()
    times = [i * 0.001 for i in range(1000)]  # 1500 B every 1 ms = 12 Mbit/s
    link = OpportunityLink(env, times, qdisc=FifoQdisc())
    assert link.capacity_in_window(0.0, 0.5) == pytest.approx(12e6, rel=0.01)
    assert link.capacity_in_window(0.1, 0.2) == pytest.approx(12e6, rel=0.05)
    assert link.offered_bits(0.0, 1.0) == pytest.approx(12e6, rel=0.01)


def test_opportunity_link_requires_opportunities():
    with pytest.raises(ValueError):
        OpportunityLink(EventLoop(), [], qdisc=FifoQdisc())


@pytest.mark.parametrize("value", NON_FINITE)
def test_opportunity_link_rejects_non_finite_times(value):
    with pytest.raises(ValueError):
        OpportunityLink(EventLoop(), [0.1, value, 0.3], qdisc=FifoQdisc())


def test_opportunity_link_capacity_is_the_trailing_window_rate():
    """capacity_bps inlines capacity_in_window's two trace lookups."""
    rng = random.Random(3)
    times = sorted(rng.uniform(0.0, 0.8) for _ in range(300))
    link = OpportunityLink(EventLoop(), times, qdisc=FifoQdisc())
    reads = [0.0, 0.05, 0.1, times[7], times[-1], 0.8 + 0.1, 1.7, 5.0]
    reads += [rng.uniform(0.0, 4.0) for _ in range(200)]
    for now in reads:
        assert link.capacity_bps(now) == link.capacity_in_window(
            now - CAPACITY_WINDOW, now)
