"""Sweep runtime: parallel execution + deterministic result caching.

This subsystem turns the repository's figure sweeps into fleets of
independent jobs:

* :class:`~repro.runtime.spec.SweepSpec` — declarative schemes × traces ×
  seeds grid that expands into jobs (run by
  :func:`repro.experiments.runner.run_seed_grid`).
* :class:`~repro.runtime.executor.SweepExecutor` — runs jobs serially or on
  a ``multiprocessing`` pool (``REPRO_JOBS`` / ``jobs=`` knob) and memoizes
  results in an on-disk content-addressed cache (``REPRO_CACHE_DIR`` /
  ``cache_dir=`` knob).
* :class:`~repro.runtime.cache.ResultCache` — the cache itself, keyed by
  :func:`~repro.runtime.cache.stable_hash` of (job function, kwargs,
  code-version salt).

* :mod:`~repro.runtime.trace_store` — a module-level store that ships each
  cellular trace to each worker process once (as it starts) instead of
  pickling it into every job; jobs carry tiny
  :class:`~repro.runtime.trace_store.TraceRef` handles.

Used as a context manager, :class:`SweepExecutor` keeps one pool alive
across ``run()`` calls, so repeated sweeps skip the ~1 s worker spin-up.
Multi-seed sweeps add a statistical seed axis selected by ``seeds=``
arguments or ``REPRO_SEEDS`` (:func:`~repro.config.resolve_seeds`; every
``REPRO_*`` knob is declared and parsed in :mod:`repro.config`).

The invariant the rest of the repo relies on: a sweep's metrics are
bit-for-bit identical whether executed serially, in parallel, on a reused
pool, or replayed from the cache.
"""

from repro.config import resolve_seeds
from repro.runtime.cache import CODE_VERSION_SALT, ResultCache, stable_hash
from repro.runtime.executor import (ExecutorStats, SweepExecutor, SweepJob,
                                    get_executor)
from repro.runtime.faults import (FAULT_KINDS, FaultInjectionError,
                                  FaultInjector, FaultSpec, JobAttempt,
                                  JobFailure, JobFailureError, is_failure,
                                  retry_backoff)
from repro.runtime.journal import RunJournal, run_key_for
from repro.runtime.spec import (SweepCell, SweepSpec, strip_result, sweep_cell,
                                validate_schemes)
from repro.runtime.trace_store import (TraceRef, clear_trace_store, get_trace,
                                       register_trace, resolve_link_spec)

__all__ = [
    "CODE_VERSION_SALT",
    "FAULT_KINDS",
    "ExecutorStats",
    "FaultInjectionError",
    "FaultInjector",
    "FaultSpec",
    "JobAttempt",
    "JobFailure",
    "JobFailureError",
    "ResultCache",
    "RunJournal",
    "SweepCell",
    "SweepExecutor",
    "SweepJob",
    "SweepSpec",
    "TraceRef",
    "clear_trace_store",
    "get_executor",
    "get_trace",
    "is_failure",
    "register_trace",
    "resolve_link_spec",
    "resolve_seeds",
    "retry_backoff",
    "run_key_for",
    "stable_hash",
    "strip_result",
    "sweep_cell",
    "validate_schemes",
]
