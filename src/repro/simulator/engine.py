"""Discrete-event simulation engine.

The engine is a binary heap of event tuples (:mod:`heapq`).  Every other
component in the simulator (links, senders, AQMs, monitors) posts callbacks
on a shared :class:`EventLoop` instance and reads the current simulated time
from :attr:`EventLoop.now`.

Design notes
------------
* Events scheduled for the same timestamp fire in insertion order; this keeps
  runs deterministic, which the test-suite and the benchmark harness rely on.
* Heap entries are immutable ``(time, seq, callback, args)`` tuples, so heap
  ordering is a C-level tuple comparison that never goes past ``seq`` (which
  is unique) — no Python-level ``__lt__`` on the hot path.  Dispatch cost is
  the ledger's ``engine.dispatch_ns_per_event`` row (``benchmarks/ledger/``).
* Every event fires: there is no cancellation.  An owner that may no longer
  want an event it posted keeps its own flag or generation and lets the
  callback return early (:class:`DeadlineTimer` is the pattern).
* One scheduler pair and one run loop.  :meth:`EventLoop.post` and
  :meth:`EventLoop.post_at` each build their heap entry directly (delegating
  costs a Python call per event on the hottest path in the repo).  The five
  per-packet sites — ``Sender._burst``, ``Sender._pace_tick`` (packet and
  next tick), ``Receiver.receive_at``, ``RateLink._finish_transmission`` and
  ``OpportunityLink._fire_opportunity`` — skip even that frame: they write
  ``heappush(env._heap, (now + delay, next(env._seq), callback, args))``, the
  entry ``post`` builds, with a module-global and a builtin callee that
  CPython 3.11 specialises (an instance attribute holding a ``partial`` or a
  bound ``__next__`` stays unspecialised at every such line).  Their delays
  are checked where they are made (:func:`check_delay` when a hop is wired,
  the capacity models, the trace's times).  ``_seq``, the loop's one
  :class:`itertools.count`, is the tie-order seam: same-time events fire in
  the order they drew from it.
  :meth:`EventLoop.run` reads the trace hook once per run and branches on
  that local per event; it pops before it looks (an entry beyond the horizon
  is pushed back, once per run, under its own sequence number) and stores the
  clock unconditionally: every heap entry's time is at or after ``now``,
  because the schedulers clamp and the clock only jumps to ``until`` when
  nothing earlier is left.  Its loop closes with an unconditional backward
  jump (``while True``, and a ``break`` on an empty heap): CPython 3.11 warms
  a code object up on calls and those jumps only, so a ``while heap:`` loop
  would stay unspecialised through the first seven runs in every process.
* ``events_processed`` is not counted per event: a run dispatched the events
  pending at its start, plus the sequence numbers drawn during it (a draw at
  each end reads them), less those pending or dropped by ``clear`` at its end.
* Simulated time is a float in **seconds**.  All other modules follow the same
  convention (rates are in bits per second, sizes in bytes).
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from itertools import count
from time import perf_counter_ns
from typing import Any, Callable, Optional


def check_delay(delay: float) -> float:
    """``delay``, once it is known to be finite and non-negative (NaN fails
    too): a per-packet site adds a wired hop's delay to ``now`` unguarded."""
    if not 0.0 <= delay < math.inf:
        raise ValueError("delay must be finite and non-negative")
    return delay


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
    >>> loop.post(1.5, fired.append, "a")
    >>> loop.post(0.5, fired.append, "b")
    >>> loop.run(until=2.0)
    >>> fired
    ['b', 'a']
    >>> loop.now
    2.0
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple] = []
        self._seq = count()             # tie order: see the design notes
        self._limit = float("inf")
        self._events_processed = 0
        self._dropped = 0               # events clear() discarded
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
        """Number of events currently scheduled."""
        return len(self._heap)

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
    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` seconds from now.

        Negative delays are clamped to zero (fire "immediately", i.e. at the
        current time but after any events already queued for it).
        """
        if not delay >= 0.0:  # negative, or NaN
            if delay != delay:
                raise ValueError("event delay must not be NaN")
            delay = 0.0
        heappush(self._heap,
                 (self._now + delay, next(self._seq), callback, args))

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(*args)`` at an absolute simulated time (a time in
        the past is clamped to now)."""
        if not time >= self._now:  # in the past, or NaN
            if time != time:
                raise ValueError("event time must not be NaN")
            time = self._now
        heappush(self._heap, (time, next(self._seq), callback, args))

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue empties or ``until`` is reached.

        When ``until`` is given, the clock is advanced to exactly ``until``
        even if the last event fired earlier (utilisation over a fixed
        horizon divides by it).
        """
        heap = self._heap
        limit = float("inf") if until is None else until
        # Published so components that execute work synchronously instead of
        # via a heap entry (inline receiver delivery) can honour
        # the same cut-off the run loop applies: an event strictly beyond
        # ``until`` never fires.
        self._limit = limit
        hook = self._trace_hook
        # See the design note on events_processed (- 1: the draw at the end).
        base = len(heap) + self._dropped - next(self._seq)
        try:
            while True:
                if not heap:
                    break
                entry = heappop(heap)
                time, _, callback, args = entry
                if time > limit:
                    heappush(heap, entry)  # same seq: keeps its place
                    break
                self._now = time
                if hook is None:
                    callback(*args)
                else:
                    t0 = perf_counter_ns()
                    callback(*args)
                    hook(time, callback, perf_counter_ns() - t0)
        finally:
            self._events_processed += (base + next(self._seq) - 1
                                       - len(heap) - self._dropped)
        if until is not None and until > self._now:
            self._now = until

    def clear(self) -> None:
        """Drop all pending events (the clock is left untouched)."""
        self._dropped += len(self._heap)
        self._heap.clear()
