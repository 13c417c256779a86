"""Process-local registry of simulation counters, free when disabled.

Every instrument is a :class:`Counter` of simulator events (events
dispatched, packets delivered and dropped, ACKs received).  A sweep's own
numbers live once, on ``SweepExecutor.last_stats`` and in the manifest's
``executor`` section; nothing copies them in here.

Disabled-mode contract
----------------------
``REPRO_TELEMETRY`` unset (the default) must leave the per-packet hot path
untouched; that default configuration is what the repo benchmark
(``benchmarks/ledger/``) measures.  One mechanism makes that possible:
nothing is instrumented per event or per call.  Components already maintain
plain integer counters for their own bookkeeping (the engine's
``events_processed``, a link's ``delivered_packets``, a sender's
``acks_received``), and :func:`harvest_scenario` reads those **once at the
end of** ``Scenario.run`` into the registry when :func:`enabled` says so
*then*.  Enabled or disabled, the inner loops never see a telemetry call,
and no component holds an instrument handle.

Workers and merging
-------------------
Each process owns one module-level registry.  Sweep workers accumulate
counts while running a job, then ship a :meth:`MetricsRegistry.snapshot`
back over their pipe and :meth:`MetricsRegistry.reset`; the parent merges
the deltas with :meth:`MetricsRegistry.merge`.  Counters merge by summation
(order-independent, so serial and parallel sweeps produce identical totals —
``tests/test_obs.py`` pins this).
"""

from __future__ import annotations

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


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class MetricsRegistry:
    """All counters of one process, keyed by name."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    # ------------------------------------------------------------ transport
    def snapshot(self) -> Dict[str, Any]:
        """A JSON-able copy of every counter (sorted for stable output)."""
        return {"counters": {name: c.value
                             for name, c in sorted(self._counters.items())}}

    def merge(self, snapshot: Dict[str, Any]) -> None:
        """Fold a worker's snapshot into this registry.

        Counters merge by summation, which is order-independent, so the
        merged totals cannot depend on worker scheduling.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).value += value

    def reset(self) -> None:
        self._counters.clear()


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
