"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fairness import jain_fairness_index
from repro.analysis.maxmin import max_min_allocation
from repro.analysis.topk import SpaceSaving
from repro.core.marking import TokenBucketMarker
from repro.core.params import ABCParams
from repro.core.router import ABCRouterQdisc
from repro.core.sender import ABCWindowControl
from repro.core.stability import FluidModel
from repro.simulator.engine import EventLoop
from repro.simulator.estimators import WindowedMinMax, WindowedRateEstimator
from repro.simulator.packet import AckFeedback, ECN, MTU, Packet, apply_brake
from repro.simulator.qdisc import FifoQdisc

# Keep hypothesis example counts moderate so the suite stays fast.
SETTINGS = settings(max_examples=60, deadline=None)


# ------------------------------------------------------------ event loop
@SETTINGS
@given(st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=50))
def test_event_loop_processes_events_in_nondecreasing_time(delays):
    loop = EventLoop()
    fired = []
    for d in delays:
        loop.post(d, lambda t=d: fired.append(loop.now))
    loop.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


#: Small palette with deliberate duplicates so generated schedules collide on
#: identical timestamps, exercising the insertion-order tie-break.
_TIE_TIMES = (0.0, 0.25, 0.25, 0.5, 1.0, 1.0)


def _run_interleaved_schedule(ops):
    """Replay a schedule of same-timestamp inserts, relative and absolute,
    with nested re-scheduling; returns the firing order."""
    loop = EventLoop()
    fired = []

    def make_callback(op_id, nested, absolute):
        def callback():
            fired.append(op_id)
            if nested:
                # Nested event lands on an already-populated timestamp.
                if absolute:
                    loop.post_at(loop.now, fired.append, (op_id, "nested"))
                else:
                    loop.post(0.0, fired.append, (op_id, "nested"))
        return callback

    for op_id, (time_idx, nested, absolute) in enumerate(ops):
        time = _TIE_TIMES[time_idx % len(_TIE_TIMES)]
        callback = make_callback(op_id, nested, absolute)
        if absolute:
            loop.post_at(time, callback)
        else:
            loop.post(time, callback)
    loop.run()
    return fired


@SETTINGS
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=11),
                          st.booleans(), st.booleans()),
                min_size=1, max_size=40))
def test_event_loop_interleaved_schedule_is_deterministic(ops):
    """Two identical runs fire callbacks in identical order (the property the
    parallel sweep executor's bit-for-bit equivalence rests on)."""
    first = _run_interleaved_schedule(ops)
    assert first == _run_interleaved_schedule(ops)
    # Every event fires exactly once, each nested one after its parent.
    fired_ids = [f for f in first if isinstance(f, int)]
    assert sorted(fired_ids) == list(range(len(ops)))
    nested = [f for f in first if not isinstance(f, int)]
    assert sorted(nested) == [(i, "nested") for i, op in enumerate(ops) if op[1]]
    assert all(first.index(op_id) < first.index((op_id, tag))
               for op_id, tag in nested)


@SETTINGS
@given(st.lists(st.integers(min_value=0, max_value=11), min_size=2, max_size=30))
def test_event_loop_ties_fire_in_insertion_order(time_indices):
    loop = EventLoop()
    fired = []
    for op_id, time_idx in enumerate(time_indices):
        loop.post(_TIE_TIMES[time_idx % len(_TIE_TIMES)], fired.append, op_id)
    loop.run()
    by_time = {}
    for op_id in fired:
        delay = _TIE_TIMES[time_indices[op_id] % len(_TIE_TIMES)]
        by_time.setdefault(delay, []).append(op_id)
    for same_time_ids in by_time.values():
        assert same_time_ids == sorted(same_time_ids)


# ------------------------------------------------------------ token bucket
@SETTINGS
@given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=2000))
def test_token_bucket_fraction_invariant(fraction, n):
    marker = TokenBucketMarker()
    accels = sum(marker.mark(fraction) for _ in range(n))
    # Never more accelerates than the cumulative fraction allows (+1 for the
    # token that may be outstanding at the end).
    assert accels <= fraction * n + 1.0


@SETTINGS
@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=500))
def test_token_bucket_bounded_by_cumulative_fraction(fractions):
    marker = TokenBucketMarker()
    accels = sum(marker.mark(f) for f in fractions)
    assert accels <= sum(fractions) + 1.0
    assert marker.token >= 0.0


# ------------------------------------------------------------ ECN / router
@SETTINGS
@given(st.sampled_from(list(ECN)))
def test_apply_brake_never_upgrades(codepoint):
    result = apply_brake(codepoint)
    assert result != ECN.ACCEL or codepoint == ECN.ACCEL
    # Applying brake twice is idempotent.
    assert apply_brake(result) == result


@SETTINGS
@given(st.floats(min_value=1e5, max_value=1e9),
       st.integers(min_value=0, max_value=400),
       st.floats(min_value=0.01, max_value=1.0))
def test_router_target_rate_bounded(capacity, queue_packets, delta):
    params = ABCParams(delta=delta)
    router = ABCRouterQdisc(params=params, buffer_packets=500,
                            capacity_fn=lambda now: capacity)
    for i in range(queue_packets):
        router.enqueue(Packet(flow_id=0, seq=i), 0.0)
    tr = router.target_rate(0.0)
    assert 0.0 <= tr <= params.eta * capacity + 1e-6


@SETTINGS
@given(st.floats(min_value=1e5, max_value=1e8))
def test_router_accel_fraction_in_unit_interval(capacity):
    router = ABCRouterQdisc(capacity_fn=lambda now: capacity)
    now = 0.0
    for i in range(50):
        router.enqueue(Packet(flow_id=0, seq=i), now)
        router.dequeue(now)
        now += 0.001
    assert 0.0 <= router.accel_fraction(now) <= 1.0


# ------------------------------------------------------------ ABC sender
@SETTINGS
@given(st.lists(st.booleans(), min_size=1, max_size=400),
       st.floats(min_value=2.0, max_value=100.0))
def test_abc_window_stays_positive_and_finite(accel_pattern, initial):
    cc = ABCWindowControl(initial_cwnd=initial, dual_window=False)
    now = 0.0
    for accel in accel_pattern:
        cc.on_ack(AckFeedback(now=now, rtt=0.1, bytes_acked=MTU, accel=accel,
                              ece=False, packets_in_flight=50))
        now += 0.001
    assert cc.w_abc >= cc.min_cwnd()
    assert math.isfinite(cc.w_abc)
    assert cc.cwnd() >= cc.min_cwnd()


@SETTINGS
@given(st.integers(min_value=1, max_value=60))
def test_abc_window_cap_respects_in_flight(in_flight):
    cc = ABCWindowControl(initial_cwnd=5.0)
    cc.w_abc = 10_000.0
    cc.cubic._cwnd = 10_000.0
    cc.on_ack(AckFeedback(now=1.0, rtt=0.1, bytes_acked=MTU, accel=True,
                          ece=False, packets_in_flight=in_flight))
    cap = cc.params.window_cap_factor * (in_flight + 1)
    assert cc.w_abc <= cap + 1e-9
    assert cc.w_nonabc <= cap + 1e-9


# ------------------------------------------------------------ estimators
@SETTINGS
@given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=100.0),
                          st.integers(min_value=1, max_value=100_000)),
                min_size=1, max_size=100))
def test_rate_estimator_never_negative(samples):
    est = WindowedRateEstimator(window=0.5)
    last = 0.0
    for t, size in sorted(samples):
        est.add(t, size)
        last = t
    assert est.rate_bps(last) >= 0.0


@SETTINGS
@given(st.lists(st.floats(min_value=0.001, max_value=10.0), min_size=1, max_size=200))
def test_windowed_minmax_invariants(values):
    w_max = WindowedMinMax(window=1e9, mode="max")
    w_min = WindowedMinMax(window=1e9, mode="min")
    for i, v in enumerate(values):
        w_max.update(float(i), v)
        w_min.update(float(i), v)
    assert w_max.get() == max(values)
    assert w_min.get() == min(values)


# ------------------------------------------------------------ queues
@SETTINGS
@given(st.lists(st.integers(min_value=40, max_value=3000), min_size=1, max_size=300),
       st.integers(min_value=1, max_value=100))
def test_fifo_conservation(sizes, buffer_packets):
    q = FifoQdisc(buffer_packets=buffer_packets)
    accepted = 0
    for i, size in enumerate(sizes):
        if q.enqueue(Packet(flow_id=0, seq=i, size=size), 0.0):
            accepted += 1
    dequeued = 0
    while q.dequeue(1.0) is not None:
        dequeued += 1
    assert accepted == dequeued
    assert accepted + q.dropped_packets == len(sizes)
    assert q.backlog_bytes == 0 and q.backlog_packets == 0


# ------------------------------------------------------------ allocation
@SETTINGS
@given(st.dictionaries(st.integers(min_value=0, max_value=20),
                       st.floats(min_value=0.0, max_value=100.0),
                       min_size=1, max_size=20),
       st.floats(min_value=0.0, max_value=200.0))
def test_max_min_allocation_invariants(demands, capacity):
    allocation = max_min_allocation(demands, capacity)
    assert sum(allocation.values()) <= capacity + 1e-6
    for key, value in allocation.items():
        assert -1e-9 <= value <= max(demands[key], 0.0) + 1e-6


@SETTINGS
@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_jain_index_bounds(allocations):
    index = jain_fairness_index(allocations)
    assert 1.0 / len(allocations) - 1e-9 <= index <= 1.0 + 1e-9


# ------------------------------------------------------------ Space-Saving
@SETTINGS
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=30),
                          st.integers(min_value=1, max_value=1000)),
                min_size=1, max_size=300),
       st.integers(min_value=1, max_value=16))
def test_space_saving_never_underestimates_and_bounded(updates, capacity):
    ss = SpaceSaving(capacity=capacity)
    true_counts = {}
    for key, amount in updates:
        ss.update(key, amount)
        true_counts[key] = true_counts.get(key, 0) + amount
    assert len(ss) <= capacity
    for key, _ in ss.top(capacity):
        assert ss.estimate(key) + 1e-9 >= true_counts.get(key, 0)


# ------------------------------------------------------------ fluid model
@SETTINGS
@given(st.floats(min_value=0.07, max_value=0.5),
       st.integers(min_value=0, max_value=30),
       st.floats(min_value=0.0, max_value=0.5))
def test_fluid_model_queue_nonnegative_and_bounded(delta, flows, initial):
    model = FluidModel(params=ABCParams(delta=delta), tau=0.05,
                       num_flows=flows, capacity_bps=20e6)
    result = model.simulate(duration=5.0, step=5e-3, initial_delay=initial)
    assert (result.queuing_delay >= 0.0).all()
    assert (result.queuing_delay <= max(initial, result.fixed_point) + 1.0).all()


# ------------------------------------------------------------ full scenarios
# End-to-end property: ANY small valid scenario satisfies the fuzzing
# invariant suite.  Reuses repro.fuzz.invariants rather than re-deriving the
# checks; the fuzz campaign explores this space at scale, hypothesis owns
# the corner-seeking (minimum rates, boundary RTTs, simultaneous starts).
from repro.fuzz.generator import FlowSpec, FuzzScenario, LinkSpec, NATIVE
from repro.fuzz.invariants import run_invariants, run_scenario

# A fast subset of the scheme pool (one loss-based, one delay-based, one
# AQM pairing, ABC itself, and one explicit-feedback router).
_SCENARIO_SCHEMES = ("cubic", "vegas", "cubic+codel", "abc", "rcp")

_link_specs = st.one_of(
    st.builds(lambda rate, buf: LinkSpec(kind="constant",
                                         params={"rate_bps": rate},
                                         buffer_packets=buf),
              st.floats(min_value=1e6, max_value=15e6),
              st.sampled_from((10, 50, 250))),
    st.builds(lambda low, ratio, period, buf: LinkSpec(
                  kind="square",
                  params={"low_bps": low, "high_bps": low * ratio,
                          "half_period": period},
                  buffer_packets=buf),
              st.floats(min_value=1e6, max_value=6e6),
              st.floats(min_value=1.5, max_value=3.0),
              st.floats(min_value=0.2, max_value=0.8),
              st.sampled_from((25, 100))),
)

_flow_specs = st.builds(
    lambda rtt, start: FlowSpec(cc=NATIVE, rtt=rtt, start_time=start),
    st.floats(min_value=0.02, max_value=0.2),
    st.floats(min_value=0.0, max_value=0.75))

_scenarios = st.builds(
    lambda scheme, link, flows, sim_seed: FuzzScenario(
        scenario_id=0, scheme=scheme, duration=1.5, links=[link],
        flows=flows, sim_seed=sim_seed),
    st.sampled_from(_SCENARIO_SCHEMES),
    _link_specs,
    st.lists(_flow_specs, min_size=1, max_size=3),
    st.integers(min_value=0, max_value=2**16))


@settings(max_examples=12, deadline=None)
@given(_scenarios)
def test_random_small_scenarios_satisfy_invariant_suite(fuzz):
    fuzz.validate()
    violations = run_invariants(run_scenario(fuzz))
    assert violations == [], [v.message for v in violations]


# ------------------------------------------------------------ metro workload
# The metro pack's determinism contract: every generator is a pure function
# of (cell, seed), bounds are hard, and the generated workload survives the
# pickle round-trip the multiprocessing sweep executor puts it through.
import pickle

from repro.metro.workload import (bounded_pareto_sizes, parse_mix,
                                  poisson_arrivals, scheme_assignment)

_cells = st.text(alphabet="abcdefgh-0123456789", min_size=1, max_size=12)
_seeds = st.integers(min_value=0, max_value=2**32)


@SETTINGS
@given(st.floats(min_value=0.1, max_value=50.0),
       st.floats(min_value=0.1, max_value=20.0), _cells, _seeds)
def test_poisson_arrivals_deterministic_ascending_bounded(rate, duration,
                                                          cell, seed):
    first = poisson_arrivals(rate, duration, cell, seed)
    assert first == poisson_arrivals(rate, duration, cell, seed)
    assert first == sorted(first)
    assert len(first) == len(set(first)), "coincident arrivals"
    assert all(0.0 < t < duration for t in first)


@SETTINGS
@given(st.floats(max_value=0.0, min_value=-10.0), _cells, _seeds)
def test_poisson_arrivals_empty_for_nonpositive_rate(rate, cell, seed):
    assert poisson_arrivals(rate, 10.0, cell, seed) == []
    assert poisson_arrivals(2.0, 0.0, cell, seed) == []


@SETTINGS
@given(st.integers(min_value=0, max_value=500),
       st.integers(min_value=1, max_value=10_000),
       st.integers(min_value=0, max_value=1_000_000),
       st.floats(min_value=0.3, max_value=3.0), _cells, _seeds)
def test_bounded_pareto_sizes_deterministic_and_bounded(n, min_bytes, extra,
                                                        alpha, cell, seed):
    max_bytes = min_bytes + extra
    first = bounded_pareto_sizes(n, cell, seed, min_bytes=min_bytes,
                                 max_bytes=max_bytes, alpha=alpha)
    assert first == bounded_pareto_sizes(n, cell, seed, min_bytes=min_bytes,
                                         max_bytes=max_bytes, alpha=alpha)
    assert len(first) == n
    assert all(isinstance(size, int) for size in first)
    assert all(min_bytes <= size <= max_bytes for size in first)


@SETTINGS
@given(st.integers(min_value=0, max_value=300),
       st.lists(st.tuples(st.sampled_from(("abc", "cubic", "bbr", "vegas")),
                          st.floats(min_value=0.01, max_value=10.0)),
                min_size=1, max_size=4), _cells, _seeds)
def test_scheme_assignment_deterministic_and_closed(n, mix, cell, seed):
    first = scheme_assignment(n, mix, cell, seed)
    assert first == scheme_assignment(n, mix, cell, seed)
    assert len(first) == n
    names = {name for name, _ in mix}
    assert all(scheme in names for scheme in first)


@SETTINGS
@given(st.lists(st.tuples(st.sampled_from(("abc", "cubic", "bbr", "sprout")),
                          st.floats(min_value=0.01, max_value=9.99)),
                min_size=1, max_size=5, unique_by=lambda pair: pair[0]))
def test_parse_mix_round_trips_weighted_labels(mix):
    label = ",".join(f"{name}:{weight!r}" for name, weight in mix)
    assert parse_mix(label) == list(mix)
    # A bare scheme name is a weight-1.0 single-scheme mix.
    assert parse_mix(mix[0][0]) == [(mix[0][0], 1.0)]


@SETTINGS
@given(_cells, _seeds, st.floats(min_value=0.5, max_value=4.0))
def test_metro_jobs_pickle_round_trip(cell_suffix, seed, rate):
    """Sweep-job kwargs — including the square-wave link tuples — must
    survive the pickle trip to a multiprocessing worker unchanged."""
    from repro.metro import metro_pack

    spec = metro_pack(2, duration=1.0, trace_seed=seed % 1000 + 1,
                      seeds=(seed % 7,), arrival_rate=rate)
    _cells_out, jobs = spec.expand()
    for job in jobs:
        assert pickle.loads(pickle.dumps(job.kwargs)) == job.kwargs
