"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.simulator.engine import EventLoop


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
