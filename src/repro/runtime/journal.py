"""Per-run completion journals: checkpoint/resume for interrupted sweeps.

A metro sweep or long fuzz campaign that dies at cell 180 of 200 — worker
wedge, ``KeyboardInterrupt``, OOM kill — should not re-pay the first 180
cells.  The journal is the crash-safe record that makes that true: as each
cell completes, the executor appends one JSON line (the cell's
content-addressed cache key plus its label) to an append-only file named by
the *run key* — a stable hash of every job key in the sweep — and stores the
cell's value in a result store.  Re-running the identical sweep reads the
journal back, serves every journaled-and-loadable cell without executing it,
and runs only what is missing.  Final aggregates are bit-identical to an
uninterrupted run because the served values are the exact pickles the
interrupted run produced.

Two storage regimes, resolved automatically:

* executor has a :class:`~repro.runtime.cache.ResultCache` → the journal
  piggybacks on it (values are already content-addressed there; the journal
  adds only the completion log, and resume serves through ordinary cache
  hits);
* no cache → the journal keeps a private store under its own directory, so
  checkpoint/resume works even for cache-less runs (these serves are counted
  as ``journal_hits`` in :class:`~repro.runtime.executor.ExecutorStats`).

Activation: the executor's ``journal=`` argument, or ``REPRO_JOURNAL`` — a
directory path, or a truthy value to place journals under ``REPRO_RUN_DIR``
(:attr:`repro.config.RuntimeConfig.journal_dir` is the rule).  Failed cells
are never journaled: a resumed run retries them from scratch.

Crash safety: records are appended one ``\\n``-terminated JSON line at a
time and flushed immediately; a torn final line (the process died
mid-append) is ignored on load.  Journals are idempotent — re-journaling a
completed run is a no-op — and keyed by content, so a code change (via the
cache salt inside each job key) starts a fresh journal instead of resuming
against stale results.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Optional, Sequence, Set, TextIO, Tuple

from repro.runtime.cache import ResultCache, stable_hash


def run_key_for(job_keys: Sequence[str]) -> str:
    """The run identity: a stable hash of the sweep's sorted job keys.

    Order-independent (a resumed sweep must find its journal even if the
    caller happens to enumerate cells differently) and automatically salted,
    because every job key already embeds the code-version salt.
    """
    return stable_hash(["run-journal", sorted(job_keys)])


class RunJournal:
    """Append-only completed-cell log plus a value store for one run.

    Created by the executor at the start of a journaled run; ``load()``
    yields what a previous incarnation already finished, ``record()`` logs
    each new completion, ``close()`` releases the file handle (idempotent,
    called from the executor's ``finally``).
    """

    def __init__(self, directory: os.PathLike | str, run_key: str,
                 store: Optional[ResultCache] = None):
        self.directory = Path(directory)
        self.run_key = run_key
        self.path = self.directory / f"run-{run_key[:32]}.journal"
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Values live in the executor's cache when it has one; otherwise in
        #: a private content-addressed store next to the journal file.
        self.owns_store = store is None
        self.store = store if store is not None else ResultCache(
            self.directory / f"store-{run_key[:32]}")
        self._completed: Set[str] = set()
        self._handle: Optional[TextIO] = None

    # ----------------------------------------------------------------- load
    def load(self) -> Set[str]:
        """Keys journaled as completed by any previous run (torn tail ok)."""
        self._completed = set()
        try:
            text = self.path.read_text()
        except FileNotFoundError:
            return set(self._completed)
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn final line from a crash mid-append
            key = record.get("key")
            if isinstance(key, str):
                self._completed.add(key)
        return set(self._completed)

    def lookup(self, key: str) -> Tuple[bool, Any]:
        """``(hit, value)`` for a journaled cell; store misses re-execute."""
        if key not in self._completed:
            return False, None
        return self.store.get(key)

    # --------------------------------------------------------------- record
    def record(self, key: str, label: str = "",
               value: Any = None, store_value: bool = False) -> None:
        """Journal one completed cell (flushed immediately for crash safety).

        ``store_value`` is set when the journal owns its private store — an
        executor with a cache already wrote the value via ``cache.put``.
        """
        if key in self._completed:
            return
        if store_value:
            self.store.put(key, value)
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(json.dumps({"key": key, "label": label},
                                      sort_keys=True) + "\n")
        self._handle.flush()
        self._completed.add(key)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
