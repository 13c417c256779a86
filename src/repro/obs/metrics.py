"""Process-local metrics registry with near-zero disabled overhead.

Three instrument kinds cover every signal the platform emits:

* :class:`Counter` — monotonically increasing event counts (packets dropped,
  cache hits, compactions).
* :class:`Gauge` — last-written point-in-time values (worker count).
* :class:`TimerHist` — nanosecond-resolution duration histograms built on
  :func:`time.perf_counter_ns` (per-job wall time, cache I/O), recorded as
  count/total/min/max plus power-of-two log buckets so histograms from many
  workers merge exactly.

Disabled-mode contract
----------------------
``REPRO_TELEMETRY`` unset (the default) must leave the per-packet hot path
untouched; that default configuration is what the repo benchmark
(``benchmarks/ledger/``) measures.  One mechanism makes that possible:
nothing is instrumented per event or per call.  Components already maintain
plain integer counters for their own bookkeeping (the engine's
``events_processed``, a link's ``delivered_packets``, a sender's
``acks_received``, the result cache's ``hits`` / ``stores``), and a harvest
reads those **once at run end** into the registry when :func:`enabled` says
so *then* — :func:`harvest_scenario` per ``Scenario.run``,
``SweepExecutor._publish_run_metrics`` per sweep (cache counters as the
run's deltas).  Enabled or disabled, the inner loops never see a telemetry
call, and no component holds an instrument handle.

Workers and merging
-------------------
Each process owns one module-level registry.  Sweep workers accumulate
metrics while running a job, then ship a :meth:`MetricsRegistry.snapshot` back
over their pipe and :meth:`MetricsRegistry.reset`; the parent merges the
deltas with :meth:`MetricsRegistry.merge`.  Counters and timer histograms
merge by summation (order-independent, so serial and parallel sweeps produce
identical totals — ``tests/test_obs.py`` pins this); gauges merge by ``max``
so the result cannot depend on worker completion order.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from repro.config import resolve

#: Programmatic override; None defers to ``REPRO_TELEMETRY``, read live.
_override: Optional[bool] = None


def enabled() -> bool:
    """True when telemetry collection is active in this process."""
    if _override is not None:
        return _override
    return resolve("telemetry")


@contextmanager
def override(flag: Optional[bool]) -> Iterator[None]:
    """Force telemetry on/off within a ``with`` block (None = no-op)."""
    global _override
    if flag is None:
        yield
        return
    previous = _override
    _override = bool(flag)
    try:
        yield
    finally:
        _override = previous


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------
class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A last-write-wins point-in-time value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


#: Number of power-of-two duration buckets: bucket ``i`` counts observations
#: with ``ns.bit_length() == i`` (bucket 0 holds 0 ns), so 64 buckets span
#: every int64 nanosecond duration.
_TIMER_BUCKETS = 64


class TimerHist:
    """Nanosecond duration histogram (``time.perf_counter_ns`` resolution).

    Stores count / total / min / max exactly plus per-power-of-two bucket
    counts, which is enough for mean and coarse percentiles and — unlike a
    quantile sketch — merges exactly across worker processes.
    """

    __slots__ = ("name", "count", "total_ns", "min_ns", "max_ns", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns = 0
        self.buckets = [0] * _TIMER_BUCKETS

    def observe_ns(self, ns: int) -> None:
        if ns < 0:
            ns = 0
        self.count += 1
        self.total_ns += ns
        if self.min_ns is None or ns < self.min_ns:
            self.min_ns = ns
        if ns > self.max_ns:
            self.max_ns = ns
        self.buckets[ns.bit_length()] += 1

    @contextmanager
    def time(self) -> Iterator[None]:
        """Time a ``with`` block at perf_counter_ns resolution."""
        t0 = time.perf_counter_ns()
        try:
            yield
        finally:
            self.observe_ns(time.perf_counter_ns() - t0)

    def to_jsonable(self) -> Dict[str, Any]:
        # Trailing zero buckets are trimmed so snapshots stay compact.
        trimmed = list(self.buckets)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        return {"count": self.count, "total_ns": self.total_ns,
                "min_ns": self.min_ns, "max_ns": self.max_ns,
                "buckets": trimmed}

    def merge(self, other: Dict[str, Any]) -> None:
        self.count += other["count"]
        self.total_ns += other["total_ns"]
        other_min = other["min_ns"]
        if other_min is not None and (self.min_ns is None
                                      or other_min < self.min_ns):
            self.min_ns = other_min
        if other["max_ns"] > self.max_ns:
            self.max_ns = other["max_ns"]
        for index, n in enumerate(other["buckets"]):
            self.buckets[index] += n


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
class MetricsRegistry:
    """All instruments of one process, keyed by name."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._timers: Dict[str, TimerHist] = {}

    # ------------------------------------------------------------- acquire
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def timer(self, name: str) -> TimerHist:
        instrument = self._timers.get(name)
        if instrument is None:
            instrument = self._timers[name] = TimerHist(name)
        return instrument

    # ------------------------------------------------------------ transport
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able copy of every instrument (sorted for stable output)."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value
                       for name, g in sorted(self._gauges.items())},
            "timers": {name: t.to_jsonable()
                       for name, t in sorted(self._timers.items())},
        }

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a worker's snapshot into this registry.

        Counters and timers merge by summation; gauges by ``max`` — all three
        are order-independent, so the merged totals cannot depend on worker
        scheduling.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value
        for name, value in snapshot.get("gauges", {}).items():
            gauge = self.gauge(name)
            if value > gauge.value:
                gauge.value = value
        for name, data in snapshot.get("timers", {}).items():
            self.timer(name).merge(data)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._timers.clear()


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """This process's registry (always real, even when telemetry is off)."""
    return _registry


# ---------------------------------------------------------------------------
# Scenario harvest
# ---------------------------------------------------------------------------
def harvest_scenario(scenario: Any) -> None:
    """Publish a finished scenario's built-in counters into the registry.

    Called by :meth:`repro.simulator.scenario.Scenario.run` once per run when
    telemetry is enabled.  Everything read here is a plain attribute the
    components maintain anyway (duck-typed, so this module imports nothing
    from the simulator), which is what keeps the disabled-mode hot path free
    of telemetry calls entirely.
    """
    reg = _registry
    env = scenario.env
    reg.counter("scenario.runs").inc()
    reg.counter("engine.events_dispatched").inc(env.events_processed)
    reg.counter("engine.events_cancelled").inc(env.cancels)
    reg.counter("engine.compactions").inc(env.compactions)
    for link in scenario.links:
        reg.counter("link.arrived_packets").inc(link.arrived_packets)
        reg.counter("link.delivered_packets").inc(link.delivered_packets)
        reg.counter("link.dropped_packets").inc(link.dropped_packets)
        reg.counter("link.random_loss_packets").inc(link.random_loss_packets)
    for flow in scenario.flows:
        sender = flow.sender
        reg.counter("sender.acks_received").inc(sender.acks_received)
        reg.counter("sender.rto_rearms").inc(sender.rto_rearms)
        reg.counter("sender.timeouts").inc(sender.timeouts)
        reg.counter("sender.retransmissions").inc(sender.retransmissions)
        reg.counter("sender.packets_sent").inc(sender.packets_sent)
        reg.counter("sender.pace_ticks").inc(sender.pace_ticks)
        reg.counter("sender.pace_halts").inc(sender.pace_halts)
        reg.counter("receiver.packets_received").inc(
            flow.receiver.packets_received)
