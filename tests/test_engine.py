"""Unit tests for the discrete-event engine."""

import functools
import math

import pytest

from repro.simulator.engine import DeadlineTimer, EventLoop


def test_events_fire_in_time_order():
    loop = EventLoop()
    fired = []
    loop.schedule(2.0, fired.append, "late")
    loop.schedule(1.0, fired.append, "early")
    loop.schedule(1.5, fired.append, "middle")
    loop.run()
    assert fired == ["early", "middle", "late"]


def test_same_time_events_fire_in_insertion_order():
    loop = EventLoop()
    fired = []
    for label in "abcde":
        loop.schedule(1.0, fired.append, label)
    loop.run()
    assert fired == list("abcde")


def test_now_advances_to_event_time():
    loop = EventLoop()
    times = []
    loop.schedule(0.5, lambda: times.append(loop.now))
    loop.schedule(2.5, lambda: times.append(loop.now))
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
    loop.schedule(1.0, fired.append, "in")
    loop.schedule(5.0, fired.append, "out")
    loop.run(until=2.0)
    assert fired == ["in"]
    assert loop.now == 2.0
    assert loop.pending == 1


def test_cancelled_event_does_not_fire():
    loop = EventLoop()
    fired = []
    handle = loop.schedule(1.0, fired.append, "cancelled")
    loop.schedule(2.0, fired.append, "kept")
    handle.cancel()
    loop.run()
    assert fired == ["kept"]
    assert handle.cancelled


def test_cancel_is_idempotent():
    loop = EventLoop()
    handle = loop.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    loop.run()
    assert loop.events_processed == 0


def test_negative_delay_clamped_to_now():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, lambda: loop.schedule(-5.0, fired.append, loop.now))
    loop.run()
    assert fired == [1.0]


def test_schedule_at_in_the_past_clamps_to_now():
    loop = EventLoop()
    fired = []

    def later():
        loop.schedule_at(0.1, fired.append, loop.now)

    loop.schedule(1.0, later)
    loop.run()
    assert fired == [1.0]


def test_nan_delay_rejected():
    loop = EventLoop()
    with pytest.raises(ValueError):
        loop.schedule(math.nan, lambda: None)
    with pytest.raises(ValueError):
        loop.schedule_at(math.nan, lambda: None)


def test_events_processed_counter():
    loop = EventLoop()
    for _ in range(5):
        loop.schedule(1.0, lambda: None)
    loop.run()
    assert loop.events_processed == 5


def test_max_events_limit():
    loop = EventLoop()
    for i in range(10):
        loop.schedule(float(i), lambda: None)
    loop.run(max_events=3)
    assert loop.events_processed == 3


def test_step_executes_single_event():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, 1)
    loop.schedule(2.0, fired.append, 2)
    assert loop.step() is True
    assert fired == [1]
    assert loop.step() is True
    assert loop.step() is False


def test_events_scheduled_during_run_are_executed():
    loop = EventLoop()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 3:
            loop.schedule(1.0, chain, depth + 1)

    loop.schedule(0.0, chain, 0)
    loop.run()
    assert fired == [0, 1, 2, 3]
    assert loop.now == 3.0


def test_clear_drops_pending_events():
    loop = EventLoop()
    fired = []
    loop.schedule(1.0, fired.append, "x")
    loop.clear()
    loop.run()
    assert fired == []


def test_clear_inside_callback():
    loop = EventLoop()
    fired = []
    loop.schedule(0.1, fired.append, "first")
    loop.schedule(0.1, loop.clear)            # wipes the rest mid-dispatch
    loop.schedule(0.1, fired.append, "gone")
    loop.schedule(5.0, fired.append, "gone-too")
    loop.run()
    assert fired == ["first"]
    assert loop.pending == 0
    # The loop is reusable after an in-callback clear.
    loop.schedule(0.05, fired.append, "again")
    loop.run()
    assert fired == ["first", "again"]


def test_step_and_max_events_interleave():
    loop = EventLoop()
    fired = []
    for i in range(4):
        loop.schedule(0.1 * (i + 1), fired.append, i)
    assert loop.step() is True
    assert fired == [0]
    loop.run(max_events=2)
    assert fired == [0, 1, 2]
    loop.run()
    assert fired == [0, 1, 2, 3]
    assert loop.step() is False


def test_schedule_after_run_until_is_relative_to_advanced_clock():
    loop = EventLoop()
    loop.run(until=3.25)                         # no events: clock still moves
    fired = []
    loop.schedule(10.0, fired.append, "later")   # relative to now=3.25
    loop.run(until=5.0)
    assert fired == [] and loop.now == 5.0 and loop.pending == 1
    loop.run()
    assert fired == ["later"] and loop.now == 13.25


def test_callback_args_are_passed():
    loop = EventLoop()
    received = []
    loop.schedule(0.5, lambda a, b: received.append((a, b)), 1, "two")
    loop.run()
    assert received == [(1, "two")]


# ------------------------------------------------------------ lazy deletion
def test_pending_counts_live_events_only():
    loop = EventLoop()
    handles = [loop.schedule(1.0, lambda: None) for _ in range(10)]
    assert loop.pending == 10
    for handle in handles[:4]:
        handle.cancel()
    assert loop.pending == 6
    assert loop.cancelled_pending == 4


def test_heap_compaction_bounds_memory_under_cancel_churn():
    loop = EventLoop()
    loop.schedule(1e9, lambda: None)  # one live far-future event
    # The RTO pattern: arm a timer, cancel it, arm the next one.  Without
    # compaction all 10 000 dead entries would linger until popped.
    for i in range(10_000):
        loop.schedule(1e6 + i, lambda: None).cancel()
    assert loop.compactions > 0
    assert len(loop._heap) < 1_000
    assert loop.pending == 1
    assert loop.cancelled_pending < 1_000


def test_compaction_preserves_firing_order():
    loop = EventLoop()
    fired = []
    expected = []
    for i in range(300):
        handle = loop.schedule(1.0 + 0.001 * i, fired.append, i)
        if i % 2:
            handle.cancel()
        else:
            expected.append(i)
    # Force compaction with extra cancelled churn, then check ordering.
    for _ in range(500):
        loop.schedule(50.0, lambda: None).cancel()
    assert loop.compactions >= 1
    loop.run()
    assert fired == expected


def test_cancel_after_fire_does_not_corrupt_pending():
    loop = EventLoop()
    handle = loop.schedule(0.5, lambda: None)
    loop.schedule(1.0, lambda: None)
    loop.run(until=0.7)
    handle.cancel()  # the event already fired; accounting must not change
    assert handle.cancelled
    assert loop.pending == 1
    assert loop.cancelled_pending == 0


def test_cancel_after_clear_does_not_corrupt_pending():
    loop = EventLoop()
    handle = loop.schedule(1.0, lambda: None)
    loop.clear()
    handle.cancel()
    assert loop.pending == 0
    assert loop.cancelled_pending == 0


def test_cancelled_events_popped_during_run_update_accounting():
    loop = EventLoop()
    fired = []
    handles = [loop.schedule(0.1 * (i + 1), fired.append, i) for i in range(5)]
    handles[1].cancel()
    handles[3].cancel()
    loop.run()
    assert fired == [0, 2, 4]
    assert loop.pending == 0
    assert loop.cancelled_pending == 0


# ------------------------------------------------------------- event budget
def test_max_events_does_not_jump_the_clock_past_pending_events():
    loop = EventLoop()
    fired = []
    for t in (1.0, 2.0, 3.0, 4.0):
        loop.schedule_at(t, lambda t=t: fired.append((t, loop.now)))
    loop.run(until=10.0, max_events=2)
    # Stopped on the budget with events pending: the clock stays put ...
    assert loop.now == 2.0 and loop.pending == 2
    loop.run()
    # ... so the rest still fire at their own times, not "at" until.
    assert fired == [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    # Stopped at the horizon or run dry, the clock does advance to until.
    loop.schedule(1.0, lambda: None)
    loop.run(until=20.0, max_events=5)
    assert loop.now == 20.0


def test_max_events_zero_still_runs_one_event():
    loop = EventLoop()
    for i in range(3):
        loop.schedule(float(i + 1), lambda: None)
    loop.run(max_events=0)
    assert loop.events_processed == 1 and loop.now == 1.0


# ------------------------------------------------------------------ one loop
def test_event_loop_has_one_run_loop():
    # No traced twin, under any name: ``run`` and ``step`` are the only
    # methods that pop the heap.
    import inspect
    assert [name for name in vars(EventLoop) if "run" in name] == ["run"]
    assert sorted(name for name, fn in vars(EventLoop).items()
                  if callable(fn) and "heappop(" in inspect.getsource(fn)
                  ) == ["run", "step"]


def _chained_workload(loop, fired):
    """Events that schedule, post and cancel further events."""
    def tick(depth):
        fired.append((loop.now, depth))
        if depth < 40:
            loop.post(0.01 * (depth % 3), tick, depth + 1)
            loop.schedule(0.5, fired.append, ("never", depth)).cancel()
    loop.schedule(0.1, tick, 0)
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


def test_compaction_inside_a_callback_keeps_the_heap_object():
    loop = EventLoop()
    heap = loop._heap
    fired = []
    doomed = [loop.schedule(5.0 + i, fired.append, ("doomed", i))
              for i in range(200)]
    for i in range(10):
        loop.schedule(2.0 + i, fired.append, ("kept", i))

    def cancel_all():
        for handle in doomed:
            handle.cancel()
        loop.schedule(0.5, fired.append, ("late", 0))

    loop.schedule(1.0, cancel_all)
    loop.run()
    assert loop.compactions >= 1           # > 64 cancelled, mid-run
    assert loop._heap is heap              # compacted in place
    assert fired == [("late", 0)] + [("kept", i) for i in range(10)]
    assert loop.pending == 0 and loop.cancelled_pending == 0


def test_event_beyond_until_keeps_its_place_among_same_time_peers():
    loop = EventLoop()
    fired = []
    loop.schedule_at(5.0, fired.append, "first")
    loop.run(until=2.0)                    # popped, found late, pushed back
    assert fired == [] and loop.pending == 1 and loop.now == 2.0
    loop.schedule_at(5.0, fired.append, "second")
    loop.run(until=3.0)                    # and again
    loop.schedule_at(5.0, fired.append, "third")
    loop.run()
    assert fired == ["first", "second", "third"]


# ------------------------------------------------------------ deadline timer
class _EagerTimer:
    """The reference: cancel the pending event and push a new one per arm."""

    def __init__(self, loop, expire, deadline_from):
        self._loop, self._expire, self._deadline_from = loop, expire, deadline_from
        self._handle = None

    def arm(self, now):
        self.clear()
        self._handle = self._loop.schedule_at(self._deadline_from(now),
                                              self._fire)

    def clear(self):
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self):
        self._handle = None
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
