"""Unit tests for the discrete-event engine."""

import functools
import math

import pytest

from repro.simulator.engine import DeadlineTimer, EventLoop


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.post(2.0, fired.append, "late")
    loop.post(1.0, fired.append, "early")
    loop.post(1.5, fired.append, "middle")
    loop.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_in_insertion_order():
    loop = EventLoop()
    fired = []
    for label in "abcde":
        loop.post(1.0, fired.append, label)
    loop.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    loop = EventLoop()
    times = []
    loop.post(0.5, lambda: times.append(loop.now))
    loop.post(2.5, lambda: times.append(loop.now))
    loop.run()
    assert times == [0.5, 2.5]
    assert loop.now == 2.5


def test_run_until_advances_clock_even_without_events():
    loop = EventLoop()
    loop.run(until=3.0)
    assert loop.now == 3.0


def test_run_until_does_not_execute_later_events():
    loop = EventLoop()
    fired = []
    loop.post(1.0, fired.append, "in")
    loop.post(5.0, fired.append, "out")
    loop.run(until=2.0)
    assert fired == ["in"]
    assert loop.now == 2.0
    assert loop.pending == 1


def test_negative_delay_clamped_to_now():
    loop = EventLoop()
    fired = []
    loop.post(1.0, lambda: loop.post(-5.0, fired.append, loop.now))
    loop.run()
    assert fired == [1.0]


def test_schedule_at_in_the_past_clamps_to_now():
    loop = EventLoop()
    fired = []

    def later():
        loop.post_at(0.1, fired.append, loop.now)

    loop.post(1.0, later)
    loop.run()
    assert fired == [1.0]


def test_nan_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.post(math.nan, lambda: None)
    with pytest.raises(ValueError):
        loop.post_at(math.nan, lambda: None)


def test_events_processed_counter():
    loop = EventLoop()
    for _ in range(5):
        loop.post(1.0, lambda: None)
    loop.run()
    assert loop.events_processed == 5


def test_events_scheduled_during_run_are_executed():
    loop = EventLoop()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            loop.post(1.0, chain, depth + 1)

    loop.post(0.0, chain, 0)
    loop.run()
    assert fired == [0, 1, 2, 3]
    assert loop.now == 3.0


def test_clear_drops_pending_events():
    loop = EventLoop()
    fired = []
    loop.post(1.0, fired.append, "x")
    loop.clear()
    loop.run()
    assert fired == []


def test_clear_inside_callback():
    loop = EventLoop()
    fired = []
    loop.post(0.1, fired.append, "first")
    loop.post(0.1, loop.clear)            # wipes the rest mid-dispatch
    loop.post(0.1, fired.append, "gone")
    loop.post(5.0, fired.append, "gone-too")
    loop.run()
    assert fired == ["first"]
    assert loop.pending == 0
    # The loop is reusable after an in-callback clear.
    loop.post(0.05, fired.append, "again")
    loop.run()
    assert fired == ["first", "again"]


def test_schedule_after_run_until_is_relative_to_advanced_clock():
    loop = EventLoop()
    loop.run(until=3.25)                     # no events: clock still moves
    fired = []
    loop.post(10.0, fired.append, "later")   # relative to now=3.25
    loop.run(until=5.0)
    assert fired == [] and loop.now == 5.0 and loop.pending == 1
    loop.run()
    assert fired == ["later"] and loop.now == 13.25


def test_callback_args_are_passed():
    loop = EventLoop()
    received = []
    loop.post(0.5, lambda a, b: received.append((a, b)), 1, "two")
    loop.run()
    assert received == [(1, "two")]


def test_pending_counts_live_events_only():
    loop = EventLoop()
    for i in range(10):
        loop.post(0.1 * (i + 1), lambda: None)
    assert loop.pending == 10
    loop.run(until=0.45)
    assert loop.pending == 6 and loop.events_processed == 4
    loop.clear()
    assert loop.pending == 0


# ------------------------------------------------------------------ one loop
def test_event_loop_has_one_run_loop():
    # One scheduler pair and one dispatch loop: no handle-returning twin, no
    # traced twin, and ``run`` is the only method that pops the heap.
    import inspect
    public = {name for name in vars(EventLoop) if not name.startswith("_")}
    assert public == {"post", "post_at", "run", "clear", "set_trace_hook",
                      "now", "pending", "events_processed"}
    sources = {name: inspect.getsource(fn)
               for name, fn in vars(EventLoop).items() if callable(fn)}
    assert {name for name, source in sources.items()
            if "heappush(" in source} == {"post", "post_at", "run"}
    assert [name for name, source in sources.items()
            if "heappop(" in source] == ["run"]
    assert list(inspect.signature(EventLoop.run).parameters) == ["self", "until"]
    loop = EventLoop()
    loop.post(1.0, print)
    loop.post_at(2.0, print)
    assert all(type(entry) is tuple for entry in loop._heap)


def _chained_workload(loop, fired):
    """Events that post further events, some of them beyond the horizon."""
    def tick(depth):
        fired.append((loop.now, depth))
        if depth < 40:
            loop.post(0.01 * (depth % 3), tick, depth + 1)
            loop.post(4.5 + 0.1 * depth, tick, 40)
    loop.post(0.1, tick, 0)
    loop.post_at(0.2, tick, 30)


def test_trace_hook_observes_every_event_and_changes_nothing():
    plain, hooked, seen = [], [], []
    loop_a, loop_b = EventLoop(), EventLoop()
    _chained_workload(loop_a, plain)
    _chained_workload(loop_b, hooked)
    loop_b.set_trace_hook(
        lambda time, callback, wall_ns: seen.append((time, wall_ns >= 0)))
    loop_a.run(until=5.0)
    loop_b.run(until=5.0)
    assert plain == hooked
    assert loop_a.events_processed == loop_b.events_processed == len(seen)
    assert [time for time, _ in seen] == [now for now, _ in hooked]
    assert all(ok for _, ok in seen) and loop_a.now == loop_b.now == 5.0


def test_traced_scenario_equals_untraced_scenario():
    from test_engine_golden_trace import run_golden_scenario

    seen = []
    plain = run_golden_scenario()
    traced = run_golden_scenario(
        lambda time, callback, wall_ns: seen.append(callback.__name__))
    assert traced.env.events_processed == plain.env.events_processed == len(seen)
    assert {"receive", "_fire_opportunity", "_fire"} <= set(seen)
    for a, b in zip(plain.flows, traced.flows):
        assert a.stats.recv_times == b.stats.recv_times
        assert a.stats.queuing_delays == b.stats.queuing_delays
        assert a.sender.packets_sent == b.sender.packets_sent > 100


def test_event_beyond_until_keeps_its_place_among_same_time_peers():
    loop = EventLoop()
    fired = []
    loop.post_at(5.0, fired.append, "first")
    loop.run(until=2.0)                    # popped, found late, pushed back
    assert fired == [] and loop.pending == 1 and loop.now == 2.0
    loop.post_at(5.0, fired.append, "second")
    loop.run(until=3.0)                    # and again
    loop.post_at(5.0, fired.append, "third")
    loop.run()
    assert fired == ["first", "second", "third"]


# ------------------------------------------------------------ deadline timer
class _EagerTimer:
    """The reference: push a new event per arm at the deadline itself; a
    generation token turns every superseded event into a no-op."""

    def __init__(self, loop, expire, deadline_from):
        self._loop, self._expire, self._deadline_from = loop, expire, deadline_from
        self._generation = 0

    def arm(self, now):
        self._generation += 1
        self._loop.post_at(self._deadline_from(now), self._fire,
                           self._generation)

    def clear(self):
        self._generation += 1

    def _fire(self, generation):
        if generation == self._generation:
            self._generation += 1
            self._expire()


MIN_DELAY = 0.2


def _drive_timer(make_timer, steps):
    """Run ``steps`` = [(time, action, rto, backoff)] against one timer the
    way a sender would: the deadline's inputs change only in an event that
    ends by arming or clearing, and an expiry backs off and re-arms."""
    loop = EventLoop()
    state = {"rto": 1.0, "backoff": 1.0}
    expired = []
    guards = []

    def expire():
        expired.append(loop.now)
        state["backoff"] = min(state["backoff"] * 2.0, 64.0)
        timer.arm(loop.now)

    timer = make_timer(
        loop, expire, lambda armed_at: armed_at + state["rto"] * state["backoff"])

    def step(action, rto, backoff):
        state["rto"], state["backoff"] = rto, backoff
        if action == "arm":
            timer.arm(loop.now)
        else:
            timer.clear()
        guards.append(sum(1 for entry in loop._heap
                          if getattr(entry[2], "__name__", "") == "_fire"))

    for time, action, rto, backoff in steps:
        loop.post_at(time, step, action, rto, backoff)
    loop.run(until=steps[-1][0] + 100.0)
    return expired, guards


def test_deadline_timer_expires_exactly_when_an_eager_timer_does():
    import random
    rng = random.Random(20)
    steps, now = [], 0.0
    for _ in range(600):
        now += rng.choice((0.0007, 0.03, 0.25, 0.9)) * rng.uniform(0.5, 1.5)
        steps.append((now,
                      "arm" if rng.random() < 0.8 else "clear",
                      # An rttvar decay shrinks the RTO as well as growing it;
                      # a fresh ACK resets a 64x backoff to 1x.
                      rng.uniform(MIN_DELAY, 1.5),
                      rng.choice((1.0, 1.0, 1.0, 2.0, 8.0, 64.0))))
    eager, _ = _drive_timer(_EagerTimer, steps)
    lazy, guards = _drive_timer(
        functools.partial(DeadlineTimer, min_delay=MIN_DELAY), steps)
    assert lazy == eager            # the same float instants, not approx
    assert len(lazy) > 30
    assert max(guards) == 1         # never a second guard in the heap


def test_cleared_timer_lapses_and_rearms_with_one_guard():
    loop = EventLoop()
    expired = []
    timer = DeadlineTimer(loop, lambda: expired.append(loop.now),
                          lambda armed_at: armed_at + 1.0, MIN_DELAY)
    timer.arm(loop.now)
    timer.arm(loop.now)
    assert loop.pending == 1
    timer.clear()
    loop.run(until=5.0)             # the guard fires once at 0.2 and lapses
    assert expired == [] and loop.pending == 0 and loop.events_processed == 1
    timer.arm(loop.now)
    timer.arm(loop.now)
    assert loop.pending == 1        # exactly one new guard
    loop.run(until=10.0)
    assert expired == [6.0] and loop.pending == 0 and timer.armed_at is None


def test_deadline_that_undercuts_min_delay_is_caught():
    loop = EventLoop()
    timer = DeadlineTimer(loop, lambda: None,
                          lambda armed_at: armed_at + MIN_DELAY / 2.0,
                          MIN_DELAY)
    timer.arm(loop.now)
    with pytest.raises(AssertionError):
        loop.run(until=1.0)
