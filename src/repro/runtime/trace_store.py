"""Module-level trace store shared between sweep processes.

A cellular trace can hold tens of thousands of delivery-opportunity
timestamps.  When a sweep fans out over a ``multiprocessing`` pool, shipping
the full trace inside every job's kwargs pickles (and re-parses) the same
timestamps once per cell — for the Fig. 9 grid that is 14 copies of each of
the eight traces.  The store fixes this: traces are registered once in the
parent, jobs carry only the trace's key (a :class:`TraceRef`, which a
scenario spec turns into a ``trace_ref`` link), and workers receive the
whole store exactly once, as each worker process starts
(:func:`install_snapshot`).

Content addressing is preserved: the key is the ``stable_hash`` of the
trace, so a job's :class:`~repro.runtime.cache.ResultCache` key still
changes whenever the *content* of the trace changes.  That hash
reads a :class:`~repro.cellular.trace.CellularTrace` as its name, opportunity
size and float64 opportunity array (its own ``cache_fingerprint()``), so
registering a trace costs one sha256 over its bytes, not one encoded node per
delivery opportunity.

The store is keyed by that content hash, so registering the same trace twice
(or two different sweeps registering identical traces) dedupes to a single
entry.  A persistent pool (:class:`~repro.runtime.executor.SweepExecutor`
used as a context manager) remembers which keys its workers were primed
with and restarts only when a submitted job references a trace the workers
do not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Set

from repro.runtime.cache import stable_hash

#: key (content hash) -> trace object, in this process.
_STORE: Dict[str, Any] = {}


@dataclass(frozen=True)
class TraceRef:
    """A registered trace's handle: ``name`` is its display name
    (cosmetic), ``key`` the content hash it lives under in the store."""

    name: str
    key: str


def register_trace(trace: Any) -> TraceRef:
    """Put ``trace`` in the store (idempotent) and return its ref."""
    key = stable_hash(trace)
    _STORE.setdefault(key, trace)
    return TraceRef(name=getattr(trace, "name", "trace"), key=key)


def get_trace(key: str) -> Any:
    """Look a trace up by content key; raise a helpful error when absent."""
    try:
        return _STORE[key]
    except KeyError:
        raise KeyError(
            f"trace {key!r} is not in this process's trace store; workers "
            "receive the store as they start — register traces before "
            "starting workers, or run the sweep through "
            "SweepExecutor so the snapshot is installed for you") from None


def referenced_keys(value: Any) -> Set[str]:
    """The store keys named anywhere inside ``value`` (a job's kwargs)."""
    if isinstance(value, str):
        return {value} & _STORE.keys()
    if isinstance(value, dict):
        value = list(value.values())
    return (set().union(*map(referenced_keys, value))
            if isinstance(value, (list, tuple)) else set())


def snapshot_for(keys: Iterable[str]) -> Dict[str, Any]:
    """Just the entries named by ``keys``, so a pool never pays for traces
    its jobs never reference (registered by earlier, unrelated sweeps)."""
    return {key: _STORE[key] for key in keys if key in _STORE}


def install_snapshot(snapshot: Dict[str, Any]) -> None:
    """Merge a snapshot into this process's store (a worker's first act)."""
    _STORE.update(snapshot)
