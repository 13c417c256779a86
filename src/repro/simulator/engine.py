"""Discrete-event simulation engine.

The engine is a classic calendar queue built on :mod:`heapq`.  Every other
component in the simulator (links, senders, AQMs, monitors) schedules callbacks
on a shared :class:`EventLoop` instance and reads the current simulated time
from :attr:`EventLoop.now`.

Design notes
------------
* Events scheduled for the same timestamp fire in insertion order; this keeps
  runs deterministic, which the test-suite and the benchmark harness rely on.
* Heap entries are plain ``[time, seq, callback, args]`` lists, so heap
  ordering is a C-level list comparison that never goes past ``seq`` (which is
  unique) — no Python-level ``__lt__`` on the hot path.  Dispatch cost is the
  ledger's ``engine.dispatch_ns_per_event`` row (``benchmarks/ledger/``).
* Cancelling an event is O(1): the entry's callback slot is cleared and the
  entry is skipped when popped.  When cancelled entries pile up the heap is
  compacted *in place* — the list object never changes, so the run loop keeps
  its local binding across a compaction inside a callback — and the queue's
  memory footprint tracks the number of *live* events.
* One run loop.  :meth:`EventLoop.run` reads the trace hook once per run and
  branches on that local per event; it pops before it looks (an entry beyond
  the horizon is pushed back, once per run, under its own sequence number)
  and stores the clock unconditionally: every heap entry's time is at or
  after ``now``, because the schedulers clamp and the clock only jumps to
  ``until`` when nothing earlier is left.
* The four schedulers each build their heap entry directly (delegating costs
  a Python call per event on the hottest path in the repo).
* Simulated time is a float in **seconds**.  All other modules follow the same
  convention (rates are in bits per second, sizes in bytes).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import count
from time import perf_counter_ns
from typing import Any, Callable, Optional

#: Sentinel stored in an entry's callback slot once the event has fired (or
#: the queue was cleared), distinguishing "already ran" from "cancelled"
#: (``None``) so late ``cancel()`` calls cannot corrupt the live-event count.
_FIRED: Any = object()

#: Compact the heap once more than this many cancelled entries linger *and*
#: they outnumber the live ones (see :meth:`EventLoop._maybe_compact`).
_COMPACT_MIN_CANCELLED = 64


class EventHandle:
    """Opaque handle returned by :meth:`EventLoop.schedule`; the only
    supported operation is :meth:`cancel`."""

    __slots__ = ("_entry", "_loop")

    def __init__(self, entry: list, loop: "EventLoop"):
        self._entry = entry
        self._loop = loop

    @property
    def time(self) -> float:
        """Absolute simulated time at which the event will fire."""
        return self._entry[0]

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        entry = self._entry
        callback = entry[2]
        if callback is None:
            return
        entry[2] = None
        if callback is not _FIRED:
            # The entry is still in the heap: account for it so ``pending``
            # stays accurate and compaction can reclaim the slot.
            loop = self._loop
            loop._cancelled += 1
            loop._total_cancels += 1
            loop._maybe_compact()


class DeadlineTimer:
    """A one-shot timer whose deadline is a function, not a stored value (RTO).

    A deadline that moves on every ACK should cost nothing to move, so the
    timer keeps only ``armed_at`` — when it was last (re)armed, ``None`` while
    disarmed — and asks ``deadline_from(armed_at)`` for the absolute deadline
    inside its *guard*, the one heap event it keeps pending while armed.  The
    guard re-posts itself at ``min(deadline, now + min_delay)`` and calls
    ``expire()`` when simulated time reaches the deadline, the very float
    instant a cancel-and-repush timer would fire; its early firings mutate no
    simulation state, so only the raw event sequence shows them.

    ``min_delay`` must lower-bound ``deadline_from(t) - t`` in every state the
    owner can reach (the sender passes its minimum RTO), so that a guard is
    never later than a deadline that shrank behind its back, and whatever
    ``deadline_from`` reads may only change in an event that ends by
    re-arming or disarming.  Invariant: armed ⇒ a guard is pending — an owner
    that knows the timer is armed may re-arm with a bare ``timer.armed_at =
    now`` (:meth:`repro.simulator.endpoints.Sender.receive` does, per ACK);
    from the disarmed state only :meth:`arm` is safe.
    """

    __slots__ = ("_loop", "_expire", "_deadline_from", "_min_delay",
                 "armed_at", "_guarded")

    def __init__(self, loop: "EventLoop", expire: Callable[[], None],
                 deadline_from: Callable[[float], float], min_delay: float):
        assert min_delay > 0.0  # a guard must make progress
        self._loop = loop
        self._expire = expire
        self._deadline_from = deadline_from
        self._min_delay = min_delay
        self.armed_at: Optional[float] = None
        self._guarded = False

    def arm(self, now: float) -> None:
        """(Re)start the countdown at ``now``, the loop's current time."""
        self.armed_at = now
        if not self._guarded:
            self._guarded = True
            self._loop.post(self._min_delay, self._fire)

    def clear(self) -> None:
        """Disarm without touching the heap (the pending guard lapses)."""
        self.armed_at = None

    def _fire(self) -> None:
        armed_at = self.armed_at
        if armed_at is None:
            self._guarded = False
            return
        min_delay = self._min_delay
        deadline = self._deadline_from(armed_at)
        assert deadline >= armed_at + min_delay, "deadline undercuts min_delay"
        loop = self._loop
        if loop._now < deadline:
            loop.post_at(min(deadline, loop._now + min_delay), self._fire)
            return
        self._guarded = False
        self.armed_at = None
        self._expire()


class EventLoop:
    """A deterministic discrete-event scheduler.

    Example
    -------
    >>> loop = EventLoop()
    >>> fired = []
    >>> _ = loop.schedule(1.5, fired.append, "a")
    >>> _ = loop.schedule(0.5, fired.append, "b")
    >>> loop.run(until=2.0)
    >>> fired
    ['b', 'a']
    >>> loop.now
    2.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[list] = []
        self._next_seq = count().__next__
        self._limit = float("inf")
        self._events_processed = 0
        self._cancelled = 0
        self._total_cancels = 0
        self._compactions = 0
        self._trace_hook: Optional[Callable[[float, Callable, int], None]] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events executed so far (useful for profiling tests)."""
        return self._events_processed

    @property
    def pending(self) -> int:
        """Number of *live* (non-cancelled) events currently scheduled."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Cancelled entries still occupying heap slots (lazy deletion)."""
        return self._cancelled

    @property
    def cancels(self) -> int:
        """Cumulative in-heap cancellations over the loop's lifetime (unlike
        :attr:`cancelled_pending`, never decreased by compaction or popping;
        the telemetry harvest reports it as total cancel traffic)."""
        return self._total_cancels

    @property
    def compactions(self) -> int:
        """Times the heap has been compacted (introspection for tests)."""
        return self._compactions

    # ----------------------------------------------------------------- trace
    def set_trace_hook(
            self, hook: Optional[Callable[[float, Callable, int], None]]
    ) -> None:
        """Install (or with ``None`` remove) a per-event dispatch observer.

        :meth:`run` reads the hook when it starts and, with one installed,
        calls ``hook(sim_time, callback, wall_ns)`` after every dispatched
        event (``wall_ns``: the callback's cost by :func:`time.perf_counter_ns`).
        The hook observes only: same loop, same event sequence, same state.
        A run without one pays a local ``is None`` test per event; what a
        hook costs is the ledger's ``trace.overhead_ratio``.
        :class:`repro.obs.trace.EventTraceRecorder` is the standard consumer.
        """
        self._trace_hook = hook

    # -------------------------------------------------------------- schedule
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Negative delays are clamped to zero (fire "immediately", i.e. at the
        current time but after any events already queued for it).
        """
        if not delay >= 0.0:  # negative, or NaN
            if delay != delay:
                raise ValueError("event delay must not be NaN")
            delay = 0.0
        entry = [self._now + delay, self._next_seq(), callback, args]
        heappush(self._heap, entry)
        return EventHandle(entry, self)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time (a time
        in the past is clamped to now)."""
        if not time >= self._now:  # in the past, or NaN
            if time != time:
                raise ValueError("event time must not be NaN")
            time = self._now
        entry = [time, self._next_seq(), callback, args]
        heappush(self._heap, entry)
        return EventHandle(entry, self)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` without constructing an :class:`EventHandle`.

        Identical heap entry (same time, same sequence number), so the event
        order is exactly what :meth:`schedule` would produce; the event just
        cannot be cancelled.  For the fire-and-forget hot paths (packet
        forwarding, link transmissions), where the handle is pure overhead.
        """
        if not delay >= 0.0:
            if delay != delay:
                raise ValueError("event delay must not be NaN")
            delay = 0.0
        heappush(self._heap,
                 [self._now + delay, self._next_seq(), callback, args])

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule_at` without constructing an :class:`EventHandle`."""
        if not time >= self._now:
            if time != time:
                raise ValueError("event time must not be NaN")
            time = self._now
        heappush(self._heap, [time, self._next_seq(), callback, args])

    # ---------------------------------------------------------- compaction
    def _maybe_compact(self) -> None:
        """Rebuild the heap without cancelled entries once they dominate.

        Lazy deletion alone lets a cancel-heavy workload grow the heap
        without bound; compacting when cancelled entries outnumber live ones
        keeps memory O(live events) at amortised O(1) cost per cancellation.
        The survivors keep their (time, seq) order, so the event sequence
        cannot tell, and the list is rewritten in place (see Design notes).
        """
        cancelled = self._cancelled
        heap = self._heap
        if cancelled > _COMPACT_MIN_CANCELLED and cancelled * 2 > len(heap):
            heap[:] = [entry for entry in heap if entry[2] is not None]
            heapify(heap)
            self._cancelled = 0
            self._compactions += 1

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given and the loop stopped there or ran dry, the
        clock is advanced to exactly ``until`` even if the last event fired
        earlier (utilisation over a fixed horizon divides by it).  A run that
        stops on its event budget leaves the clock at the last event fired:
        events before ``until`` may still be pending.
        """
        heap = self._heap
        limit = float("inf") if until is None else until
        # Published so components that execute work synchronously instead of
        # via a heap entry (FlowDemux's inline receiver delivery) can honour
        # the same cut-off the run loop applies: an event strictly beyond
        # ``until`` never fires.
        self._limit = limit
        hook = self._trace_hook
        # Any budget below one still runs one event; -1 never matches.
        budget = -1 if max_events is None else max(max_events, 1)
        executed = 0
        try:
            while heap:
                entry = heappop(heap)
                time, _, callback, args = entry
                if time > limit:
                    heappush(heap, entry)  # same seq: keeps its place
                    break
                if callback is None:
                    self._cancelled -= 1
                    continue
                entry[2] = _FIRED
                self._now = time
                if hook is None:
                    callback(*args)
                else:
                    t0 = perf_counter_ns()
                    callback(*args)
                    hook(time, callback, perf_counter_ns() - t0)
                executed += 1
                if executed == budget:
                    return
        finally:
            self._events_processed += executed
        if until is not None and until > self._now:
            self._now = until

    def step(self) -> bool:
        """Execute one live event; ``False`` when the queue is empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            time, _, callback, args = entry
            if callback is None:
                self._cancelled -= 1
                continue
            entry[2] = _FIRED
            self._now = time
            callback(*args)
            self._events_processed += 1
            return True
        return False

    def clear(self) -> None:
        """Drop all pending events (the clock is left untouched)."""
        # Mark surviving entries as retired so a late cancel() on one of
        # their handles cannot skew the cancelled-entry accounting.
        for entry in self._heap:
            if entry[2] is not None:
                entry[2] = _FIRED
        self._heap.clear()
        self._cancelled = 0
