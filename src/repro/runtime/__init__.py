"""Sweep runtime: parallel execution + deterministic result caching.

This subsystem turns the repository's figure sweeps into fleets of
independent jobs:

* :class:`~repro.runtime.spec.SweepSpec` — declarative schemes × traces ×
  seeds grid that expands into :class:`~repro.runtime.spec.SweepJob`\\ s (run by
  :func:`repro.experiments.runner.run_seed_grid`).
* :class:`~repro.runtime.executor.SweepExecutor` — runs jobs serially or on
  a ``multiprocessing`` pool and memoizes results in an on-disk
  content-addressed cache.  It is the one object that says how a sweep runs:
  grid runners take a ready executor (or build ``SweepExecutor()`` from the
  ``REPRO_*`` environment).
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

The names below are resolved on first use (PEP 562), so writing a spec or
running a cell in-process never loads the executor and ``multiprocessing``.
"""

_LAZY = {
    "ResultCache": "repro.runtime.cache:ResultCache",  # read by benchmarks/ledger
    "SweepExecutor": "repro.runtime.executor:SweepExecutor",  # read by benchmarks/ledger
    "SweepJob": "repro.runtime.spec:SweepJob",  # read by benchmarks/ledger
    "SweepSpec": "repro.runtime.spec:SweepSpec",  # read by benchmarks/ledger
    "is_failure": "repro.runtime.faults:is_failure",  # read by benchmarks/ledger
    "RunJournal": "repro.runtime.journal:RunJournal",  # read by benchmarks/ledger
    "run_key_for": "repro.runtime.journal:run_key_for",  # read by benchmarks/ledger
}


def __getattr__(name):
    from pkgutil import resolve_name

    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return resolve_name(_LAZY[name])
