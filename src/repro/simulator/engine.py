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
  entry is skipped when popped.  When cancelled entries pile up (per-ACK RTO
  re-arming cancels one event per ACK) the heap is compacted in place, so the
  queue's memory footprint tracks the number of *live* events.
* :meth:`EventLoop.schedule` and :meth:`EventLoop.schedule_at` both construct
  heap entries directly (no delegation — it costs a Python call per event on
  the hottest path in the repo).  Instrumentation that needs to observe every
  event (the golden determinism trace in
  ``tests/test_engine_golden_trace.py``) overrides *both* methods.
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
    """Opaque handle returned by :meth:`EventLoop.schedule`.

    The only supported operation is :meth:`cancel`; everything else is an
    implementation detail of the engine.
    """

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
    """A lazily re-armed one-shot timer for deadline-style timeouts (RTO).

    Cancelling the pending event and pushing a new one every time the
    deadline moves costs a heap push plus a lazily cancelled entry per move,
    which on an ACK-clocked sender means one per ACK.  This timer stores the
    deadline in a plain attribute instead: moving the deadline *later* is
    free, and the pending heap event simply re-schedules itself at the
    current deadline when it fires early.  Only moving the deadline *earlier*
    than the pending event (a shrinking RTO after an idle period) touches the
    heap.

    ``expire()`` is invoked exactly when simulated time reaches the deadline,
    the instant a cancel-and-repush timer would fire.  The early no-op
    firings mutate no simulation state, so results are the same; only the raw
    event sequence differs (extra ``DeadlineTimer._fire`` entries).
    """

    __slots__ = ("_loop", "_expire", "deadline", "_handle")

    def __init__(self, loop: "EventLoop", expire: Callable[[], None]):
        self._loop = loop
        self._expire = expire
        self.deadline: Optional[float] = None
        self._handle: Optional[EventHandle] = None

    def set(self, deadline: float) -> None:
        """Move the expiry to absolute time ``deadline``."""
        self.deadline = deadline
        handle = self._handle
        if handle is None:
            self._handle = self._loop.schedule_at(deadline, self._fire)
        elif handle._entry[0] > deadline:
            handle.cancel()
            self._handle = self._loop.schedule_at(deadline, self._fire)

    def clear(self) -> None:
        """Disarm without touching the heap (the stale event no-ops)."""
        self.deadline = None

    def _fire(self) -> None:
        self._handle = None
        deadline = self.deadline
        if deadline is None:
            return
        loop = self._loop
        if loop._now < deadline:
            self._handle = loop.schedule_at(deadline, self._fire)
            return
        self.deadline = None
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
        self._running = False
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
        """Cumulative in-heap cancellations over the loop's whole lifetime.

        Unlike :attr:`cancelled_pending` this never decreases — compaction
        and popping reclaim heap slots but leave this count alone — so the
        telemetry harvest can report total cancel traffic.
        """
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

        While a hook is installed, :meth:`run` executes a separate traced
        loop that calls ``hook(sim_time, callback, wall_ns)`` after every
        dispatched event, where ``wall_ns`` is the callback's wall-clock cost
        from :func:`time.perf_counter_ns`.  The hook observes only — the
        event sequence and all simulation state are identical to an untraced
        run.  With no hook installed (the default) the hot loop is untouched
        and pays nothing; :class:`repro.obs.trace.EventTraceRecorder` is the
        standard consumer.
        """
        self._trace_hook = hook

    # -------------------------------------------------------------- schedule
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Negative delays are clamped to zero (fire "immediately", i.e. at the
        current time but after any events already queued for it).
        """
        if delay != delay:  # faster spelling of math.isnan(delay)
            raise ValueError("event delay must not be NaN")
        now = self._now
        entry = [now + delay if delay > 0.0 else now,
                 self._next_seq(), callback, args]
        heappush(self._heap, entry)
        return EventHandle(entry, self)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time != time:
            raise ValueError("event time must not be NaN")
        if time < self._now:
            time = self._now
        entry = [time, self._next_seq(), callback, args]
        heappush(self._heap, entry)
        return EventHandle(entry, self)

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule` without constructing an :class:`EventHandle`.

        Identical heap entry (same time, same sequence number), so the event
        order is exactly what :meth:`schedule` would produce — the only
        difference is that the event cannot be cancelled.  Used by the
        fire-and-forget hot paths (packet forwarding, link transmissions),
        where the handle allocation is pure overhead.
        """
        if delay != delay:
            raise ValueError("event delay must not be NaN")
        now = self._now
        heappush(self._heap, [now + delay if delay > 0.0 else now,
                              self._next_seq(), callback, args])

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """:meth:`schedule_at` without constructing an :class:`EventHandle`."""
        if time != time:
            raise ValueError("event time must not be NaN")
        if time < self._now:
            time = self._now
        heappush(self._heap, [time, self._next_seq(), callback, args])

    # ---------------------------------------------------------- compaction
    def _maybe_compact(self) -> None:
        """Rebuild the heap without cancelled entries once they dominate.

        Lazy deletion alone lets a cancel-heavy workload (one RTO re-arm per
        ACK) grow the heap without bound; compacting when cancelled entries
        outnumber live ones keeps memory O(live events) at amortised O(1)
        cost per cancellation.  Compaction preserves the (time, seq) order of
        the surviving entries, so it is invisible to the event sequence.
        """
        cancelled = self._cancelled
        if (cancelled > _COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._heap)):
            self._heap = [entry for entry in self._heap
                          if entry[2] is not None]
            heapify(self._heap)
            self._cancelled = 0
            self._compactions += 1

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue empties, ``until`` is reached, or
        ``max_events`` have been processed.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fires earlier; this makes utilisation
        calculations over a fixed horizon straightforward.
        """
        if self._trace_hook is not None:
            return self._run_traced(until, max_events)
        self._running = True
        heap = self._heap
        limit = float("inf") if until is None else until
        # Published so components that execute work synchronously instead of
        # via a heap entry (FlowDemux's inline receiver delivery) can honour
        # the same cut-off the run loop applies: an event strictly beyond
        # ``until`` never fires.
        self._limit = limit
        processed = 0
        executed = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > limit:
                    break
                heappop(heap)
                callback = entry[2]
                if callback is None:
                    self._cancelled -= 1
                    continue
                entry[2] = _FIRED
                if time > self._now:
                    self._now = time
                callback(*entry[3])
                if heap is not self._heap:
                    # A cancel inside the callback compacted the heap (the
                    # list was replaced); re-bind before the next pop.
                    heap = self._heap
                executed += 1
                if max_events is not None:
                    processed += 1
                    if processed >= max_events:
                        break
        finally:
            self._running = False
            self._events_processed += executed
        if until is not None and until > self._now:
            self._now = until

    def _run_traced(self, until: Optional[float] = None,
                    max_events: Optional[int] = None) -> None:
        """:meth:`run` with the trace hook active.

        A verbatim copy of the :meth:`run` loop plus the per-event hook call
        and wall-clock timing.  Duplicating the loop (instead of branching on
        the hook inside it) keeps the untraced hot path — the one every
        benchmark and sweep runs — completely free of tracing overhead.
        """
        self._running = True
        heap = self._heap
        limit = float("inf") if until is None else until
        self._limit = limit
        hook = self._trace_hook
        processed = 0
        executed = 0
        try:
            while heap:
                entry = heap[0]
                time = entry[0]
                if time > limit:
                    break
                heappop(heap)
                callback = entry[2]
                if callback is None:
                    self._cancelled -= 1
                    continue
                entry[2] = _FIRED
                if time > self._now:
                    self._now = time
                t0 = perf_counter_ns()
                callback(*entry[3])
                hook(time, callback, perf_counter_ns() - t0)
                if heap is not self._heap:
                    heap = self._heap
                executed += 1
                if max_events is not None:
                    processed += 1
                    if processed >= max_events:
                        break
        finally:
            self._running = False
            self._events_processed += executed
        if until is not None and until > self._now:
            self._now = until

    def step(self) -> bool:
        """Execute a single (non-cancelled) event.  Returns ``False`` when the
        queue is empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            callback = entry[2]
            if callback is None:
                self._cancelled -= 1
                continue
            entry[2] = _FIRED
            time = entry[0]
            if time > self._now:
                self._now = time
            callback(*entry[3])
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
