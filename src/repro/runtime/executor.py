"""Parallel sweep execution with deterministic, cache-backed results.

The experiment sweeps in this repository (Figs. 8/9/15/16/18, Table 1, the
WiFi and coexistence grids) are embarrassingly parallel: every (scheme,
trace, seed, overrides) cell is an independent single-process simulation.
:class:`SweepExecutor` fans a list of :class:`SweepJob`\\ s out over a
``multiprocessing`` pool, falls back to in-process serial execution when one
worker is requested, and memoizes completed cells through
:class:`~repro.runtime.cache.ResultCache`.

Determinism contract
--------------------
Results are returned in job-submission order and each job runs in its own
simulator instance with explicit seeds, so the returned metrics are
bit-for-bit identical whether a sweep runs serially, in parallel, on a
reused pool, or is replayed from the cache.
``tests/test_runtime_executor.py`` enforces this; with fault injection
active, ``tests/test_runtime_faults.py`` extends it to the failure records.

Configuration
-------------
Every knob is resolved once, at construction, into ``executor.config`` (a
:class:`~repro.config.RuntimeConfig`: argument beats environment beats
default); the run manifest records it.  Job *functions* must be module-level
callables with picklable kwargs: parallel workers receive them by reference.

Pool reuse
----------
By default every :meth:`SweepExecutor.run` call spins up (and tears down) its
own pool, which costs ~1 s of worker start-up — enough to swamp the
parallel win on small grids.  Used as a context manager the executor keeps
one pool alive across ``run()`` calls::

    with SweepExecutor(jobs=4) as executor:
        first = spec_a.run(executor)    # pool starts here
        second = spec_b.run(executor)   # pool reused, no spin-up

Workers are primed with the shared trace store
(:mod:`repro.runtime.trace_store`) when the pool starts, so job kwargs carry
tiny :class:`~repro.runtime.trace_store.TraceRef` handles instead of pickling
every trace into every cell.  If new traces are registered after the pool
started, the next ``run()`` transparently restarts it with a fresh snapshot.

Execution
---------
Every ``run()`` — default, with progress or telemetry, with a timeout or a
retry budget, in-process or pooled — walks each pending cell through one
attempt state machine (:meth:`SweepExecutor._drive`; diagram in
``docs/ARCHITECTURE.md``): submit → attempt → *ok*: commit + record +
progress, or *failed* (exception / worker died / deadline): seeded backoff
and resubmit while the retry budget lasts, then a
:class:`~repro.runtime.faults.JobFailure` in the cell's slot.

The loop runs over one of two small *transports*, chosen from what the code
can observe — one worker, or a single pending cell with no deadline to
enforce, runs in-process (:class:`_InProcessTransport`: capacity one,
injected crashes/hangs synthesized, no preemption of a wedged job); anything
else goes to the pool (:class:`_PoolTransport`: ``apply_async``, a
completion queue the parent blocks on, start announcements, pid liveness,
condemn → grace → finalise).

Timeout, retries, fault injection, journal, cache, progress and telemetry
are per-job policies that are simply absent when not configured
(``timeout=None`` arms no deadline, ``retries=0`` exhausts on the first
failure, no injector fires nothing), so on every run:

1. a completed cell is committed (slot, cache, journal) *as it lands* — an
   interrupted or failed sweep resumes instead of restarting;
2. ``strict`` finishes the sweep, assembles ``last_stats``, then raises the
   lowest failed slot's original exception (a
   :class:`~repro.runtime.faults.JobFailureError` when a crash/timeout left
   nothing to re-raise); ``salvage`` returns the sentinels in-slot, so the
   other 199 cells of a metro sweep survive;
3. ``last_stats.job_records`` holds one timing record per executed attempt,
   tagged ``attempt`` / ``outcome``;
4. job keys are computed only when something consumes them (cache, journal,
   fault injector, or a failure record / backoff draw).

The retry schedule is seeded, so it is part of the reproducible record; and
a ``KeyboardInterrupt`` tears the pool down instead of orphaning workers.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing
import os
import pickle
import queue
import signal
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple, Union)

from repro.config import RuntimeConfig
from repro.obs import metrics as obs_metrics
from repro.obs.progress import ProgressTracker, resolve_progress
from repro.runtime.cache import CODE_VERSION_SALT, ResultCache, stable_hash
from repro.runtime.faults import (FaultInjectionError, FaultInjector,
                                  FaultSpec, JobAttempt, JobFailure,
                                  JobFailureError, crash_attempt,
                                  retry_backoff, timeout_attempt)
from repro.runtime.journal import RunJournal, run_key_for
from repro.runtime.trace_store import (TraceRef, install_snapshot,
                                       snapshot_for)

#: The pool cannot wake the parent for a start announcement or a worker
#: death (only completions are pushed), so a blocked wait on the pool
#: transport returns at least this often to look for both.
_HEARTBEAT_SECONDS = 0.05

#: How long a dead-pid / expired-deadline attempt stays *condemned* before
#: it is finalised as a crash/timeout.  A worker writes an attempt's result
#: to the pool's outqueue pipe *before* it picks up its next task, so it can
#: die on task N+1 while task N's bytes are still waiting for the parent's
#: result-handler thread.  Finalising on the first dead-pid sighting would
#: misread that finished attempt as crashed (dropping its real result and
#: breaking serial ≡ parallel determinism); the grace window lets any
#: already-piped result win the race.  A genuinely lost attempt can never
#: deliver, so the delay costs latency only, never correctness.
_LATE_RESULT_GRACE_SECONDS = 1.0


@dataclass
class SweepJob:
    """One independent sweep cell: a module-level function plus kwargs.

    ``label`` is purely cosmetic (progress/debug output); it does not enter
    the cache key, so relabeling a job still hits its cached result.
    """

    func: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def cache_key(self, salt: str) -> str:
        """Content-addressed cache key: function identity + kwargs + salt."""
        func_id = f"{self.func.__module__}.{self.func.__qualname__}"
        return stable_hash([func_id, self.kwargs, salt])

    def run(self) -> Any:
        return self.func(**self.kwargs)


#: Worker-side handle on the executor's start queue (set by the pool
#: initializer); attempts announce (run id, slot, attempt, pid) through it
#: so the parent can arm deadlines and attribute worker deaths.
_START_QUEUE = None


def _pool_init(trace_snapshot: Dict[str, Any], start_queue=None) -> None:
    """Pool initializer: prime the trace store and keep the start queue."""
    global _START_QUEUE
    install_snapshot(trace_snapshot)
    _START_QUEUE = start_queue


def _attempt_outcome(job: SweepJob, job_key: Optional[str], attempt: int,
                     fault_spec: Optional[FaultSpec]) -> Dict[str, Any]:
    """Run one guarded attempt body; never raises.

    Shared verbatim by the in-process transport and pool workers so an
    error's captured traceback is byte-identical across execution modes
    (same frames, same files, same lines).  Injected ``job_error`` faults
    fire inside the ``try`` for the same reason.
    """
    try:
        if fault_spec is not None:
            FaultInjector(fault_spec).maybe_error(job_key, attempt)
        value = job.run()
    except Exception as exc:
        tb = "".join(traceback.format_exception(type(exc), exc,
                                                exc.__traceback__))
        return {"ok": False, "outcome": "error",
                "error_type": type(exc).__qualname__, "error": str(exc),
                "traceback": tb, "exception": exc,
                "injected": isinstance(exc, FaultInjectionError)}
    return {"ok": True, "value": value}


def _timed_attempt(job: SweepJob, job_key: Optional[str], attempt: int,
                   fault_spec: Optional[FaultSpec], pid: int
                   ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """The guarded attempt plus its timing record: ``(outcome, meta)``."""
    start_unix = time.time()
    t0 = time.perf_counter()
    outcome = _attempt_outcome(job, job_key, attempt, fault_spec)
    wall = time.perf_counter() - t0
    return outcome, {
        "label": job.label, "pid": pid, "start_unix": start_unix,
        "wall_seconds": wall, "queue_wait_seconds": 0.0, "attempt": attempt,
        "outcome": "ok" if outcome["ok"] else "error"}


def _run_attempt(payload: tuple) -> tuple:
    """The worker-side trampoline: one attempt of one job.

    Announces itself on the start queue first — the parent arms the job's
    deadline and learns which pid to blame if this process dies — then fires
    any injected process faults (crash/hang), runs the guarded attempt and
    ships the completion home.  With ``REPRO_TELEMETRY`` on, the worker
    registry is snapshotted and **reset**, so every attempt ships exactly
    its own delta and the parent-side merge is order-independent.
    """
    run_id, slot, attempt, job, job_key, fault_spec, submitted_unix = payload
    pid = os.getpid()
    if _START_QUEUE is not None:
        _START_QUEUE.put((run_id, slot, attempt, pid))
    if fault_spec is not None:
        FaultInjector(fault_spec).fire_process_faults(job_key, attempt)
    outcome, meta = _timed_attempt(job, job_key, attempt, fault_spec, pid)
    meta["queue_wait_seconds"] = max(meta["start_unix"] - submitted_unix, 0.0)
    if not outcome["ok"]:
        # The original exception rides home for strict-mode re-raising, but
        # only when it survives pickling — a poison result would be lost in
        # the pool's result pipe otherwise.
        try:
            pickle.dumps(outcome["exception"])
        except Exception:
            outcome["exception"] = None
    snapshot = None
    if obs_metrics.enabled():
        registry = obs_metrics.registry()
        snapshot = registry.snapshot()
        registry.reset()
    return slot, attempt, outcome, meta, snapshot


def _needed_trace_keys(jobs: Sequence[SweepJob]) -> set:
    """Content keys of every :class:`TraceRef` the jobs' kwargs reference."""
    keys = set()
    for job in jobs:
        for value in job.kwargs.values():
            if isinstance(value, TraceRef):
                keys.add(value.key)
            elif isinstance(value, (tuple, list)):
                keys.update(item.key for item in value
                            if isinstance(item, TraceRef))
    return keys


class _InProcessTransport:
    """Runs each attempt in this process, at submission.

    Nothing announces itself here, so the driver never arms a deadline or
    looks for a dead pid (``live_pids`` / ``kill`` / ``forget`` are never
    reached): a serial run cannot preempt a wedged job.  Injected process
    faults are synthesized instead of fired, and metrics stay in the live
    registry (a snapshot/reset round-trip would orphan live handles).

    A completion is ``(slot, attempt, outcome, meta, metrics_snapshot)``:
    ``outcome`` is :func:`_attempt_outcome`'s dict, or ``{"ok": False,
    "outcome": tag}`` for a synthesized ``worker_crash`` / ``timeout``;
    ``meta`` is ``None`` when no worker lived to time the attempt.
    """

    #: Attempts in flight at once; ``None`` means "everything pending".
    capacity: Optional[int] = 1
    #: The driver's clock (monotonic seconds).
    now = staticmethod(time.monotonic)

    def __init__(self, fault_spec: Optional[FaultSpec] = None):
        self._fault_spec = fault_spec
        self._injector = (FaultInjector(fault_spec)
                          if fault_spec is not None else None)
        self._pid = os.getpid()
        self._done: Optional[tuple] = None

    def submit(self, run_id: int, slot: int, attempt: int, job: SweepJob,
               job_key: Optional[str]) -> None:
        injector = self._injector
        if injector is not None:
            for kind, tag in (("worker_crash", "worker_crash"),
                              ("job_hang", "timeout")):
                if injector.should(kind, job_key, attempt):
                    self._done = (slot, attempt,
                                  {"ok": False, "outcome": tag}, None, None)
                    return
        outcome, meta = _timed_attempt(job, job_key, attempt,
                                       self._fault_spec, self._pid)
        self._done = (slot, attempt, outcome, meta, None)

    def wait(self, timeout: Optional[float]) -> Optional[tuple]:
        """The next completion, or ``None`` once ``timeout`` has passed."""
        done, self._done = self._done, None
        if done is None:
            time.sleep(timeout)      # only a retry's backoff is pending
        return done

    def starts(self) -> Sequence[Tuple[int, int, int, int]]:
        """Start announcements ``(run id, slot, attempt, pid)`` read so far."""
        return ()


class _PoolTransport:
    """Runs attempts on a ``multiprocessing`` pool via ``apply_async``.

    Completions are pushed onto a thread-safe queue by the pool's result
    thread, so the parent blocks instead of scanning.  Each attempt
    announces ``(run id, slot, attempt, pid)`` on the start queue as its
    first act: the driver arms the deadline only then (queue wait never
    counts) and knows which attempt to blame when that pid dies.  Crashed
    or killed workers are respawned by the pool's own maintenance thread.
    """

    capacity = None
    now = staticmethod(time.monotonic)

    def __init__(self, pool, start_queue,
                 fault_spec: Optional[FaultSpec] = None):
        self._pool = pool
        self._start_queue = start_queue
        self._fault_spec = fault_spec
        self._completions: "queue.SimpleQueue[tuple]" = queue.SimpleQueue()
        self._handles: Dict[int, Any] = {}

    def submit(self, run_id, slot, attempt, job, job_key) -> None:
        completions = self._completions  # no cycle through the callbacks

        def broken(exc: BaseException) -> None:
            # Pool plumbing failure (e.g. an unpicklable result): an errored
            # attempt carrying the parent-side exception text.
            completions.put((slot, attempt, {
                "ok": False, "outcome": "error", "error": str(exc),
                "error_type": type(exc).__qualname__, "traceback": "",
                "exception": None, "injected": False}, None, None))

        payload = (run_id, slot, attempt, job, job_key, self._fault_spec,
                   time.time())
        self._handles[slot] = self._pool.apply_async(
            _run_attempt, (payload,), callback=completions.put,
            error_callback=broken)

    def wait(self, timeout):
        if timeout is None or timeout > _HEARTBEAT_SECONDS:
            timeout = _HEARTBEAT_SECONDS
        try:
            return self._completions.get(timeout=max(timeout, 0.0))
        except queue.Empty:
            return None

    def starts(self):
        messages = []
        while not self._start_queue.empty():
            try:
                messages.append(self._start_queue.get())
            except (EOFError, OSError):
                break
        return messages

    def live_pids(self) -> Set[int]:
        """Pids of pool workers currently alive (respawns change this set)."""
        try:
            return {worker.pid for worker in self._pool._pool
                    if worker.exitcode is None and worker.pid is not None}
        except Exception:
            return set()

    def kill(self, pid: int) -> None:
        """SIGKILL a wedged worker so the pool can respawn a fresh one."""
        try:
            os.kill(pid, signal.SIGKILL)
        except OSError:
            pass

    def forget(self, slot: int) -> None:
        """Drop a lost attempt's handle: left in the pool's result cache it
        would make ``close()`` + ``join()`` wait for a result that cannot
        arrive (best effort)."""
        try:
            self._pool._cache.pop(self._handles.pop(slot)._job, None)
        except Exception:
            pass


@dataclass
class _Running:
    """Parent-side view of an in-flight attempt that announced itself."""

    attempt: int
    pid: int
    started_unix: float
    #: The job deadline (armed when the announcement is read, never at
    #: submission; ``None`` without a timeout) — or, once condemned, the
    #: end of the late-result grace window.
    due: Optional[float]
    #: ``"worker_crash"`` / ``"timeout"`` once presumed lost (condemned).
    lost: Optional[str] = None


@dataclass
class ExecutorStats:
    """What the last :meth:`SweepExecutor.run` call actually did."""

    total: int = 0
    cache_hits: int = 0
    #: Cache entries found corrupt during this run's scan — served as misses,
    #: deleted, then recomputed and rewritten (distinct from ordinary misses).
    cache_corrupt: int = 0
    #: Entries evicted by the REPRO_CACHE_MAX_MB size cap while this run's
    #: results were being stored (mtime-LRU, see repro.runtime.cache).
    cache_evictions: int = 0
    #: Cache writes that failed with an OSError (disk full, read-only dir)
    #: and were degraded to a warning + miss instead of crashing the sweep.
    cache_write_errors: int = 0
    executed: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    pool_reused: bool = False
    #: Attempts re-submitted after an error/crash/timeout (each retry of
    #: each job counts once).
    retries: int = 0
    #: Attempts abandoned at the REPRO_JOB_TIMEOUT deadline (their wedged
    #: workers are killed and respawned).
    timeouts: int = 0
    #: Worker processes that died mid-attempt (injected or real); the pool
    #: respawns them and the in-flight attempt is resubmitted or failed.
    worker_crashes: int = 0
    #: Jobs whose retry budget was exhausted; under the salvage policy each
    #: occupies its result slot as a JobFailure sentinel.
    failed_jobs: int = 0
    #: Cells served from a resume journal's *private* store (cache-less
    #: runs; journaled cells served by the result cache count as cache_hits).
    journal_hits: int = 0
    #: JSON-able JobFailure records, in slot order (salvage and strict both
    #: populate this before any strict-mode raise).
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: One timing record per executed attempt, on every run: label, worker
    #: pid, start, wall time, queue wait, attempt number and outcome
    #: (``ok`` / ``error`` / ``timeout`` / ``worker_crash``).
    job_records: List[Dict[str, Any]] = field(default_factory=list)


class SweepExecutor:
    """Runs :class:`SweepJob` lists with optional parallelism and caching.

    Every argument left ``None`` defers to its ``REPRO_*`` knob, then to the
    knob's default (:mod:`repro.config`); the resolved table is ``.config``.

    Parameters
    ----------
    jobs:
        Worker count; ``0``/``"auto"`` uses every CPU.
    cache_dir:
        Directory of the on-disk result cache; unset disables caching.
    salt:
        Code-version salt mixed into every cache key.
    progress:
        ``True`` selects the stderr line, ``False`` forces progress off, and
        any callable receives a :class:`~repro.obs.progress.SweepProgress`
        after every completed cell.
    timeout, retries, backoff:
        Per-job deadline (seconds), retry budget, backoff base (seconds).
    faults:
        Deterministic chaos: a :class:`~repro.runtime.faults.FaultSpec`, a
        spec string, or ``False`` to force off.
    failure_policy:
        ``"strict"`` (raise after retries are exhausted) or ``"salvage"``
        (return JobFailure sentinels in-slot).
    journal:
        Checkpoint/resume (:mod:`repro.runtime.journal`): a directory,
        ``True`` (the directory the environment names, else
        ``REPRO_RUN_DIR/journal``) or ``False`` (force off).

    Used as a plain object, every :meth:`run` call manages its own
    short-lived pool.  Used as a context manager (``with SweepExecutor(...)
    as ex:``) the pool persists across ``run()`` calls — see
    :meth:`open`/:meth:`close`.
    """

    def __init__(self, jobs: Optional[int | str] = None,
                 cache_dir: Optional[os.PathLike | str] = None,
                 salt: Optional[str] = None,
                 progress: Union[None, bool, Callable] = None,
                 timeout: Union[int, float, str, None] = None,
                 retries: Union[int, str, None] = None,
                 backoff: Union[int, float, str, None] = None,
                 faults: Any = None,
                 failure_policy: Optional[str] = None,
                 journal: Any = None):
        self.config = config = RuntimeConfig.from_env().overlay(
            jobs=jobs, cache_dir=cache_dir, progress=progress,
            timeout=timeout, retries=retries, backoff=backoff, faults=faults,
            failure_policy=failure_policy, journal=journal)
        self.workers = config.jobs
        self.progress = config.progress
        self.cache: Optional[ResultCache] = (
            ResultCache(config.cache_dir, config.cache_max_mb)
            if config.cache_dir is not None else None)
        self.salt = CODE_VERSION_SALT if salt is None else salt
        self.timeout = config.timeout
        self.retries = config.retries
        self.backoff = config.backoff
        self.faults: Optional[FaultSpec] = config.faults
        self.failure_policy = config.failure_policy
        self.journal_dir = config.journal_dir
        self._injector: Optional[FaultInjector] = (
            FaultInjector(self.faults) if self.faults is not None else None)
        if (self.faults is not None and self.timeout is None
                and self.faults.rate("job_hang") > 0.0):
            raise ValueError(
                "REPRO_FAULTS injects job_hang but no job timeout is set — "
                "an injected hang would wedge the sweep forever; set "
                "REPRO_JOB_TIMEOUT (or timeout=)")
        if self.cache is not None and self._injector is not None:
            # cache_write_fail faults fire inside ResultCache.put, which
            # degrades them to a warning + miss like any real OSError.
            self.cache.fault_injector = self._injector
        self.last_stats = ExecutorStats()
        self._persistent = False
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_trace_keys: set = set()
        self._start_queue = None
        self._run_counter = 0

    # ------------------------------------------------------------ pool reuse
    def open(self) -> "SweepExecutor":
        """Switch to persistent-pool mode.

        The pool itself starts lazily on the first parallel :meth:`run` and
        then stays warm until :meth:`close`, so repeated sweeps pay the
        worker spin-up cost once instead of once per sweep.
        """
        self._persistent = True
        return self

    def close(self) -> None:
        """Shut the persistent pool down (idempotent, safe without one)."""
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
        self._pool_trace_keys = set()

    def __enter__(self) -> "SweepExecutor":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        self._persistent = False

    def _ensure_pool(self, needed_keys: set, processes: int
                     ) -> multiprocessing.pool.Pool:
        """The executor's pool, restarted only when it is missing a trace.

        Workers are primed with exactly the traces the submitted jobs
        reference — never with unrelated registrations from other sweeps, so
        worker memory stays bounded by one sweep's working set.  A ``run()``
        whose refs the workers already hold reuses the warm pool; any other
        restarts it (~1 s, what a one-shot pool would have paid anyway).
        """
        if self._pool is not None and not needed_keys <= self._pool_trace_keys:
            self.close()
        if self._pool is None:
            if self._start_queue is None:  # executor-lifetime, outlives pools
                self._start_queue = multiprocessing.SimpleQueue()
            snapshot = snapshot_for(needed_keys)
            self._pool = multiprocessing.Pool(
                processes=processes, initializer=_pool_init,
                initargs=(snapshot, self._start_queue))
            self._pool_trace_keys = set(snapshot)
        return self._pool

    def _abort_pool(self) -> None:
        """Terminate + join the pool: no worker outlives an aborted run."""
        pool, self._pool = self._pool, None
        self._pool_trace_keys = set()
        if pool is not None:
            pool.terminate()
            pool.join()

    def _transport(self, pending: List[SweepJob]) -> Tuple[Any, bool]:
        """``(transport, pool_was_reused)`` for this run's pending jobs.

        In-process or pool is chosen from what the code can observe: one
        worker, or a single cell with no deadline to enforce, needs no pool.
        Outside ``with SweepExecutor(...)``, :meth:`run` tears the pool down.
        """
        if self.workers <= 1 or (len(pending) == 1 and self.timeout is None):
            return _InProcessTransport(self.faults), False
        previous = self._pool
        pool = self._ensure_pool(
            _needed_trace_keys(pending),
            self.workers if self._persistent
            else min(self.workers, len(pending)))
        return (_PoolTransport(pool, self._start_queue, self.faults),
                pool is previous)

    # ------------------------------------------------------------------ run
    def run(self, jobs: Sequence[SweepJob],
            failure_policy: Optional[str] = None) -> List[Any]:
        """Execute every job, returning results in submission order.

        Cached (or journaled) cells are served without executing; the rest
        walk the attempt state machine of the module docstring, in-process
        or on a ``multiprocessing`` pool.  Jobs whose retry budget ran out
        either raise once the sweep has finished (``strict``) or come back
        as in-slot :class:`~repro.runtime.faults.JobFailure` sentinels
        (``salvage``); ``failure_policy`` overrides the executor-level
        policy for this run.
        """
        jobs = list(jobs)
        policy = self.config.overlay(
            failure_policy=failure_policy).failure_policy
        started = time.perf_counter()
        results: List[Any] = [None] * len(jobs)
        cache = self.cache
        # Keys are computed up front only for a consumer that reads every
        # one of them; a failure record or backoff draw computes its own.
        keys: List[Optional[str]] = (
            [job.cache_key(self.salt) for job in jobs]
            if (cache is not None or self.journal_dir is not None
                or self._injector is not None) else [None] * len(jobs))
        stats = ExecutorStats(total=len(jobs), workers=self.workers)
        cache_before = ((cache.corrupt, cache.evictions, cache.write_errors)
                        if cache is not None else None)
        journal: Optional[RunJournal] = None
        if self.journal_dir is not None and jobs:
            journal = RunJournal(self.journal_dir, run_key_for(keys),
                                 store=cache)
            journal.load()
        pending: List[int] = []
        for index, job in enumerate(jobs):
            if cache is not None:
                hit, value = cache.get(keys[index])
                if hit:
                    results[index] = value
                    stats.cache_hits += 1
                    if journal is not None:
                        journal.record(keys[index], job.label)
                    continue
            if journal is not None and journal.owns_store:
                hit, value = journal.lookup(keys[index])
                if hit:
                    results[index] = value
                    stats.journal_hits += 1
                    continue
            pending.append(index)
        stats.executed = len(pending)

        callback = resolve_progress(self.progress)
        tracker = (ProgressTracker(len(jobs),
                                   stats.cache_hits + stats.journal_hits,
                                   callback)
                   if callback is not None else None)

        def commit(index: int, value: Any) -> None:
            """Land one completed cell: result slot, cache, journal."""
            results[index] = value
            if cache is not None:
                cache.put(keys[index], value)
            if journal is not None:
                journal.record(keys[index], jobs[index].label, value,
                               store_value=journal.owns_store)

        failures: Dict[int, JobFailure] = {}
        originals: Dict[int, BaseException] = {}
        try:
            if pending:
                transport, stats.pool_reused = self._transport(
                    [jobs[i] for i in pending])
                failures, originals = self._drive(
                    transport, pending, jobs, keys, commit, tracker, stats)
        except (KeyboardInterrupt, SystemExit):
            # Never orphan pool workers on an interrupted sweep, persistent
            # pool or not.  Every cell that completed was committed as it
            # landed, so a rerun resumes instead of restarting.
            self._abort_pool()
            raise
        finally:
            if not self._persistent:
                self._abort_pool()
            if journal is not None:
                journal.close()

        for index, failure in failures.items():
            results[index] = failure
        stats.failed_jobs = len(failures)
        stats.failures = [failures[i].to_jsonable() for i in sorted(failures)]
        if cache_before is not None:
            stats.cache_corrupt = cache.corrupt - cache_before[0]
            stats.cache_evictions = cache.evictions - cache_before[1]
            stats.cache_write_errors = cache.write_errors - cache_before[2]
        stats.wall_seconds = time.perf_counter() - started
        self.last_stats = stats
        if obs_metrics.enabled():
            self._publish_run_metrics(stats)
        if failures and policy == "strict":
            first = min(failures)
            if first in originals:
                raise originals[first]
            raise JobFailureError(failures[first])
        return results

    def _publish_run_metrics(self, stats: ExecutorStats) -> None:
        """Fold the finished run's bookkeeping into the metrics registry."""
        registry = obs_metrics.registry()
        registry.counter("executor.runs").inc()
        if stats.pool_reused:
            registry.counter("executor.pool_reuses").inc()
        registry.gauge("executor.workers").set(self.workers)
        for name in ("retries", "timeouts", "worker_crashes", "failed_jobs",
                     "journal_hits", "cache_write_errors"):
            value = getattr(stats, name)
            if value:
                registry.counter(f"executor.{name}").inc(value)
        wall = registry.timer("executor.job_wall")
        wait = registry.timer("executor.queue_wait")
        for record in stats.job_records:
            wall.observe_ns(int(record["wall_seconds"] * 1e9))
            wait.observe_ns(int(record["queue_wait_seconds"] * 1e9))

    # ------------------------------------------------------------ the loop
    def _drive(self, transport, pending: List[int], jobs: List[SweepJob],
               keys: List[Optional[str]], commit: Callable[[int, Any], None],
               tracker: Optional[ProgressTracker], stats: ExecutorStats
               ) -> Tuple[Dict[int, JobFailure], Dict[int, BaseException]]:
        """Walk every pending slot through the attempt state machine.

        The clock, sleep, pid-liveness and kill primitives all come from
        ``transport``, so the loop itself never touches a process.  Attempt
        records and retry/timeout/crash counts go straight into ``stats``;
        returns ``(failures, original exceptions)`` by slot.
        """
        retries, timeout, backoff = self.retries, self.timeout, self.backoff
        injector = self._injector
        seed = self.faults.seed if self.faults is not None else 0
        registry = obs_metrics.registry()
        self._run_counter += 1
        run_id = self._run_counter
        records = stats.job_records
        failures: Dict[int, JobFailure] = {}
        originals: Dict[int, BaseException] = {}
        fresh: Deque[int] = deque(pending)          # attempt 1 not yet sent
        waiting: List[Tuple[float, int, int]] = []  # heap: (due, slot, attempt)
        inflight: Dict[int, int] = {}               # slot -> attempt number
        running: Dict[int, _Running] = {}           # inflight and announced
        history: Dict[int, List[JobAttempt]] = {}
        unfinished = len(pending)
        capacity = transport.capacity or unfinished

        def key_of(slot: int) -> str:
            if keys[slot] is None:
                keys[slot] = jobs[slot].cache_key(self.salt)
            return keys[slot]

        submit, wait, starts = transport.submit, transport.wait, transport.starts
        now = transport.now()
        while unfinished:
            # 1. Submit: retries whose backoff elapsed, then fresh slots.
            while len(inflight) < capacity:
                if waiting and waiting[0][0] <= now:
                    _, slot, attempt = heapq.heappop(waiting)
                elif fresh:
                    slot, attempt = fresh.popleft(), 1
                else:
                    break
                inflight[slot] = attempt
                submit(run_id, slot, attempt, jobs[slot], keys[slot])

            # 2. Block until a completion lands or something falls due.
            due = waiting[0][0] if waiting else None
            for state in running.values():
                if state.due is not None and (due is None or state.due < due):
                    due = state.due
            completion = wait(None if due is None else max(due - now, 0.0))
            now = transport.now()

            # 3. Start announcements: learn attempt → pid, and arm the
            #    deadline only now that the attempt actually runs.
            for msg_run, slot, attempt, pid in starts():
                if msg_run != run_id:
                    continue  # stale message from an aborted earlier run
                if inflight.get(slot) == attempt:
                    running[slot] = _Running(
                        attempt, pid, time.time(),
                        now + timeout if timeout is not None else None)

            # 4. A dead pid or passed deadline *condemns* an attempt.  Once
            #    the grace window has passed with the completion queue empty
            #    (see _LATE_RESULT_GRACE_SECONDS) its loss becomes this
            #    iteration's completion, and a wedged worker is killed so
            #    the pool can respawn a fresh one.
            if running:
                live = transport.live_pids()
                for slot, state in running.items():
                    if state.lost is None:
                        if state.pid not in live:
                            state.lost = "worker_crash"
                        elif state.due is not None and now >= state.due:
                            state.lost = "timeout"
                        else:
                            continue
                        state.due = now + _LATE_RESULT_GRACE_SECONDS
                    elif completion is None and now >= state.due:
                        transport.forget(slot)
                        if state.lost == "timeout" and state.pid in live:
                            transport.kill(state.pid)
                        completion = (slot, state.attempt,
                                      {"ok": False, "outcome": state.lost},
                                      None, None)

            # 5. Land the completed attempt, or record why it failed.
            if completion is None:
                continue
            slot, attempt, outcome, meta, snapshot = completion
            if inflight.get(slot) != attempt:
                continue
            del inflight[slot]
            state = running.pop(slot, None) if running else None
            if snapshot is not None:
                registry.merge(snapshot)
            if outcome["ok"]:
                unfinished -= 1
                records.append(meta)
                commit(slot, outcome["value"])
                if tracker is not None:
                    tracker.job_done(meta["label"])
                continue
            tag = outcome["outcome"]
            if meta is None:  # no worker lived to time this attempt
                begun = state.started_unix if state else time.time()
                meta = {"label": jobs[slot].label,
                        "pid": state.pid if state else None,
                        "start_unix": begun,
                        "wall_seconds": max(time.time() - begun, 0.0),
                        "queue_wait_seconds": 0.0,
                        "attempt": attempt, "outcome": tag}
            records.append(meta)
            if tag == "worker_crash":
                stats.worker_crashes += 1
                rec = crash_attempt(attempt, injected=(
                    injector is not None
                    and injector.should("worker_crash", key_of(slot), attempt)))
            elif tag == "timeout":
                stats.timeouts += 1
                rec = timeout_attempt(attempt, timeout, injected=(
                    injector is not None
                    and injector.should("job_hang", key_of(slot), attempt)))
            else:
                rec = JobAttempt(
                    attempt=attempt, outcome="error", error=outcome["error"],
                    error_type=outcome["error_type"],
                    traceback=outcome["traceback"],
                    injected=outcome["injected"])
                if outcome["exception"] is not None:
                    originals[slot] = outcome["exception"]
            attempts = history.setdefault(slot, [])
            if attempt <= retries:  # budget left: seeded backoff, resubmit
                delay = retry_backoff(key_of(slot), attempt, backoff, seed)
                attempts.append(dataclasses.replace(rec,
                                                    backoff_seconds=delay))
                stats.retries += 1
                heapq.heappush(waiting, (now + delay, slot, attempt + 1))
            else:                   # exhausted: the failure takes the slot
                attempts.append(rec)
                unfinished -= 1
                failures[slot] = JobFailure(
                    key=key_of(slot), label=jobs[slot].label,
                    attempts=tuple(attempts))
                if tracker is not None:
                    tracker.job_done(jobs[slot].label)
        return failures, originals


def get_executor(executor: Optional[SweepExecutor] = None,
                 jobs: Optional[int | str] = None,
                 cache_dir: Optional[os.PathLike | str] = None,
                 journal: Any = None,
                 failure_policy: Optional[str] = None) -> SweepExecutor:
    """Shared convenience for experiment entry points.

    Returns ``executor`` unchanged when given one, otherwise builds a fresh
    :class:`SweepExecutor` from the other arguments.
    """
    if executor is not None:
        return executor
    return SweepExecutor(jobs=jobs, cache_dir=cache_dir, journal=journal,
                         failure_policy=failure_policy)
