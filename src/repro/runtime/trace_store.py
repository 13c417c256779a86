"""Module-level trace store shared between sweep processes.

A cellular trace can hold tens of thousands of delivery-opportunity
timestamps.  When a sweep fans out over a ``multiprocessing`` pool, shipping
the full trace inside every job's kwargs pickles (and re-parses) the same
timestamps once per cell — for the Fig. 9 grid that is 14 copies of each of
the eight traces.  The store fixes this: traces are registered once in the
parent, jobs carry only a tiny :class:`TraceRef`, and workers receive the
whole store exactly once, as each worker process starts
(:func:`install_snapshot`).

Content addressing is preserved: a :class:`TraceRef` carries the
``stable_hash`` of the trace it names and exposes it through
``cache_fingerprint()``, so a job's :class:`~repro.runtime.cache.ResultCache`
key still changes whenever the *content* of the trace changes, never just its
display name.

The store is keyed by that content hash, so registering the same trace twice
(or two different sweeps registering identical traces) dedupes to a single
entry.  A persistent pool (:class:`~repro.runtime.executor.SweepExecutor`
used as a context manager) remembers which keys its workers were primed
with and restarts only when a submitted job references a trace the workers
do not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Tuple

from repro.runtime.cache import stable_hash

#: key (content hash) -> trace object, in this process.
_STORE: Dict[str, Any] = {}


@dataclass(frozen=True)
class TraceRef:
    """A picklable stand-in for a registered trace.

    ``name`` is the trace's display name (cosmetic); ``key`` is the content
    hash under which the trace lives in the store.  The ref hashes like the
    trace it names (via ``cache_fingerprint``), so swapping a trace for its
    ref inside job kwargs keeps the result cache content-addressed.
    """

    name: str
    key: str

    def cache_fingerprint(self) -> Tuple[str, str]:
        return ("trace", self.key)

    def resolve(self) -> Any:
        return get_trace(self.key)


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


def resolve_link_spec(spec: Any) -> Any:
    """Turn a :class:`TraceRef` back into its trace; pass anything else through."""
    if isinstance(spec, TraceRef):
        return spec.resolve()
    return spec


def snapshot_for(keys: Iterable[str]) -> Dict[str, Any]:
    """Just the entries named by ``keys``, so a pool never pays for traces
    its jobs never reference (registered by earlier, unrelated sweeps)."""
    return {key: _STORE[key] for key in keys if key in _STORE}


def install_snapshot(snapshot: Dict[str, Any]) -> None:
    """Merge a snapshot into this process's store (a worker's first act)."""
    _STORE.update(snapshot)


def clear_trace_store() -> int:
    """Empty the store (tests); returns the number of entries removed."""
    removed = len(_STORE)
    _STORE.clear()
    return removed
