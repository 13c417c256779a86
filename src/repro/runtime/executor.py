"""Parallel sweep execution with deterministic, cache-backed results.

The experiment sweeps in this repository (Figs. 8/9/15/16/18, Table 1, the
WiFi and coexistence grids) are embarrassingly parallel: every (scheme,
trace, seed) cell is an independent single-process simulation.
:class:`SweepExecutor` fans a list of :class:`SweepJob`\\ s out over worker
processes it owns, runs in-process when one worker is requested, and
memoizes completed cells through :class:`~repro.runtime.cache.ResultCache`.

Determinism contract
--------------------
Results are returned in job-submission order and each job runs in its own
simulator instance with explicit seeds, so the returned metrics are
bit-for-bit identical whether a sweep runs serially, in parallel, on a
reused pool, or is replayed from the cache.
``tests/test_runtime_executor.py`` enforces this; with faults injected by
``tests/chaos.py``, ``tests/test_runtime_faults.py`` extends it to the
failure records.

Configuration
-------------
Every knob is resolved once, at construction, into ``executor.config`` (a
:class:`~repro.config.RuntimeConfig`: argument beats environment beats
default); the run manifest records it.  Job *functions* must be module-level
callables with picklable kwargs: parallel workers receive them by reference.

Pool reuse
----------
By default every :meth:`SweepExecutor.run` call starts (and stops) its own
workers.  Used as a context manager the executor keeps them alive across
``run()`` calls::

    with SweepExecutor(jobs=4) as executor:
        first = fig9_sweep(executor=executor)     # workers start here
        second = fig18_rtt_sensitivity(executor=executor)  # no spin-up

Workers are primed with the shared trace store
(:mod:`repro.runtime.trace_store`) when they start, so a cell's spec
carries only a trace's content key (a ``trace_ref`` link), not the trace.
A ``run()`` that references a trace the workers do not hold transparently
restarts them with a fresh snapshot.

Execution
---------
Every ``run()`` — default, with progress or telemetry, with a timeout or a
retry budget, in-process or pooled — walks each pending cell through one
attempt state machine (:meth:`SweepExecutor._drive`; diagram in
``docs/ARCHITECTURE.md``): fresh → in flight → landed, and a landed attempt
is *ok*: commit + record + progress, or *failed* (exception / worker died /
deadline): hashed backoff and resubmit while the retry budget lasts, then a
:class:`~repro.runtime.faults.JobFailure` in the cell's slot.

The loop runs over one of two small *transports*, chosen from what the code
can observe — one worker, or a single pending cell with no deadline to
enforce, runs in-process (:class:`_InProcessTransport`: capacity one, no
preemption of a wedged job); anything else goes to the pool
(:class:`_PoolTransport`: N processes, one duplex pipe each, one attempt at
a time per worker, so the parent *knows* which process runs which attempt
and whether it is alive — no thread, no poll interval, no grace period; its
docstring has the protocol).  ``queue_wait_seconds`` is
the hand-off latency from ``submit`` to the worker starting the attempt: a
cell waiting for a free worker waits in the parent, off every clock.

Timeout, retries, journal, cache, progress and telemetry are per-job
policies that are simply absent when not configured (``timeout=None`` arms
no deadline, ``retries=0`` exhausts on the first failure), so every run
keeps the four promises of ``docs/ARCHITECTURE.md`` ("Failure lifecycle"):
a completed cell is committed as it lands; ``strict`` raises only after the
sweep finished and ``last_stats`` is assembled; ``job_records`` holds one
record per attempt; job keys are computed only when something consumes
them.

The retry schedule is a hash of the job key, so it is part of the
reproducible record; and a ``KeyboardInterrupt`` kills and reaps the workers
instead of orphaning them.
"""

from __future__ import annotations

import dataclasses
import heapq
import multiprocessing.connection
import os
import pickle
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple, Union)

from repro.config import RuntimeConfig
from repro.obs import metrics as obs_metrics
from repro.obs.progress import SweepProgress, resolve_progress
from repro.runtime.cache import CODE_VERSION_SALT, ResultCache
from repro.runtime.faults import (JobAttempt, JobFailure, JobFailureError,
                                  crash_attempt, retry_backoff,
                                  timeout_attempt)
from repro.runtime.journal import RunJournal, run_key_for
from repro.runtime.spec import SweepJob
from repro.runtime.trace_store import (install_snapshot, referenced_keys,
                                       snapshot_for)

def _timed_attempt(job: SweepJob, attempt: int, pid: int
                   ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One guarded attempt and its timing record, ``(outcome, meta)``; never
    raises.

    Shared verbatim by the in-process transport and pool workers so an
    error's captured traceback is byte-identical across execution modes
    (same frames, same files, same lines).
    """
    start_unix = time.time()
    t0 = time.perf_counter()
    try:
        outcome = {"ok": True, "value": job.run()}
    except Exception as exc:
        tb = "".join(traceback.format_exception(type(exc), exc,
                                                exc.__traceback__))
        outcome = {"ok": False, "outcome": "error",
                   "error_type": type(exc).__qualname__, "error": str(exc),
                   "traceback": tb, "exception": exc}
    return outcome, {
        "label": job.label, "pid": pid, "start_unix": start_unix,
        "wall_seconds": time.perf_counter() - t0, "queue_wait_seconds": 0.0,
        "attempt": attempt, "outcome": "ok" if outcome["ok"] else "error"}


def _run_attempt(payload: tuple) -> tuple:
    """The worker-side trampoline: one attempt of one job.

    Runs the guarded attempt and hands the completion back.  With
    ``REPRO_TELEMETRY`` on, the worker registry is snapshotted and
    **reset**, so every attempt ships exactly its own delta and the
    parent-side merge is order-independent.
    """
    attempt, job, submitted_unix = payload
    outcome, meta = _timed_attempt(job, attempt, os.getpid())
    meta["queue_wait_seconds"] = max(meta["start_unix"] - submitted_unix, 0.0)
    if not outcome["ok"]:
        # The original exception rides home for strict-mode re-raising, but
        # only when it survives pickling — otherwise the whole completion,
        # captured traceback included, would fail to send.
        try:
            pickle.dumps(outcome["exception"])
        except Exception:
            outcome["exception"] = None
    snapshot = None
    if obs_metrics.enabled():
        registry = obs_metrics.registry()
        snapshot = registry.snapshot()
        registry.reset()
    return outcome, meta, snapshot


def _worker_main(conn, trace_snapshot: Dict[str, Any]) -> None:
    """A worker process: prime the trace store, then run one attempt per
    message off ``conn`` until the parent sends ``None``."""
    install_snapshot(trace_snapshot)
    while True:
        payload = conn.recv()
        if payload is None:
            return
        completion = _run_attempt(payload)
        try:
            conn.send(completion)
        except Exception as exc:
            # An unpicklable result (``send`` pickles before it writes, so
            # the pipe is still clean): an errored attempt, not a hang.
            conn.send(({"ok": False, "outcome": "error", "error": str(exc),
                        "error_type": type(exc).__qualname__, "traceback": "",
                        "exception": None}, None, None))


class _InProcessTransport:
    """Runs each attempt in this process, at submission.

    ``submit`` names no worker process (it returns ``None``), so the driver
    arms no deadline and never calls ``abandon``: a serial run cannot
    preempt a wedged job.  A job's counters land in this process's registry
    directly, so there is no snapshot to ship.

    A completion is ``(slot, outcome, meta, metrics_snapshot)``:
    ``outcome`` is :func:`_timed_attempt`'s dict, or ``{"ok": False,
    "outcome": tag}`` for a ``worker_crash`` / ``timeout``; ``meta`` is
    ``None`` when no worker lived to time the attempt.
    """

    #: Attempts in flight at once.
    capacity = 1
    #: The driver's clock (monotonic seconds).
    now = staticmethod(time.monotonic)

    def __init__(self):
        self._pid = os.getpid()
        self._done: Optional[tuple] = None

    def submit(self, slot: int, attempt: int, job: SweepJob) -> Optional[int]:
        """Start one attempt; the pid now running it, if a process is."""
        outcome, meta = _timed_attempt(job, attempt, self._pid)
        self._done = (slot, outcome, meta, None)
        return None

    def wait(self, timeout: Optional[float]) -> Optional[tuple]:
        """The next completion, or ``None`` once ``timeout`` has passed."""
        done, self._done = self._done, None
        if done is None:
            time.sleep(timeout)      # only a retry's backoff is pending
        return done


class _PoolTransport:
    """``capacity`` worker processes, one duplex pipe each, owned here.

    The parent hands a worker one attempt at a time, so it always knows
    which process runs which attempt and an idle worker starts at once:
    ``submit`` returns the pid and the driver arms the deadline there.
    ``wait`` is one select over the busy pipes; a completion and a death
    (end of file with no completion in the pipe) both wake it, and the dead
    worker is replaced on the spot.
    """

    now = staticmethod(time.monotonic)

    def __init__(self, processes: int, trace_snapshot: Dict[str, Any]):
        self.capacity = processes
        self.trace_snapshot = trace_snapshot
        #: pipe -> (process, the slot whose attempt it is running).
        self._busy: Dict[Any, Tuple[Any, int]] = {}
        self._idle = [self._spawn() for _ in range(processes)]

    def _spawn(self) -> tuple:
        """Start one worker: ``(process, the parent's end of its pipe)``."""
        conn, worker_end = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main, args=(worker_end, self.trace_snapshot),
            daemon=True)
        process.start()
        worker_end.close()   # the worker's copy is the only one: death = EOF
        return process, conn

    def _replace(self, process, conn) -> tuple:
        """Reap a dead (or kill a wedged) worker and start its successor.

        Never from inside an ``except`` block: a forked child inherits the
        exception being handled and chains every traceback it later captures
        to it, which breaks serial ≡ parallel failure records.
        """
        process.kill()
        process.join()
        conn.close()
        return self._spawn()

    def submit(self, slot, attempt, job) -> int:
        payload = (attempt, job, time.time())
        while True:
            process, conn = self._idle.pop()
            try:
                conn.send(payload)
                break
            except OSError:  # it died idle (between two run() calls of a
                pass         # persistent executor): no attempt is charged
            self._idle.append(self._replace(process, conn))
        self._busy[conn] = (process, slot)
        return process.pid

    def wait(self, timeout):
        ready = multiprocessing.connection.wait(list(self._busy), timeout)
        return self._collect(ready[0]) if ready else None

    def _collect(self, conn) -> tuple:
        """Read a readable busy pipe: its worker's completion — or, at end
        of file, a ``worker_crash`` for the attempt that worker died on."""
        process, slot = self._busy.pop(conn)
        try:
            completion = conn.recv()
        except (EOFError, OSError):
            completion = None
        if completion is None:
            self._idle.append(self._replace(process, conn))
            return slot, {"ok": False, "outcome": "worker_crash"}, None, None
        self._idle.append((process, conn))
        return (slot, *completion)

    def abandon(self, slot: int) -> Optional[tuple]:
        """Give up on ``slot``'s attempt at its deadline.

        Whatever already sits in the pipe wins (the late-result rule);
        otherwise the wedged worker is killed and replaced, and ``None``
        tells the driver the attempt timed out.
        """
        conn = next(c for c, (_, busy) in self._busy.items() if busy == slot)
        if conn.poll():
            return self._collect(conn)
        self._idle.append(self._replace(self._busy.pop(conn)[0], conn))
        return None

    def close(self) -> None:
        """Stop and reap every worker.

        An idle one is *told* to return: under ``fork`` a worker started
        later holds a copy of the parent's end of every earlier pipe, so
        closing that end never reaches it.  A busy one (the run was aborted
        under it) is killed.
        """
        busy = [(process, conn) for conn, (process, _) in self._busy.items()]
        for process, _ in busy:
            process.kill()
        for _, conn in self._idle:
            try:
                conn.send(None)
            except OSError:
                pass             # died idle
        for process, conn in self._idle + busy:
            process.join()
            conn.close()


@dataclass
class ExecutorStats:
    """What the last :meth:`SweepExecutor.run` call actually did.

    ``job_records`` is the run's one count of its attempts: ``retries``,
    ``timeouts`` and ``worker_crashes`` are read off it, and ``failed_jobs``
    off ``failures``.
    """

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

    @property
    def retries(self) -> int:
        """Attempts re-submitted after an error/crash/timeout."""
        return sum(record["attempt"] > 1 for record in self.job_records)

    @property
    def timeouts(self) -> int:
        """Attempts abandoned at the REPRO_JOB_TIMEOUT deadline (their
        wedged workers are killed and replaced)."""
        return self._landed_as("timeout")

    @property
    def worker_crashes(self) -> int:
        """Attempts whose worker died under them."""
        return self._landed_as("worker_crash")

    @property
    def failed_jobs(self) -> int:
        """Jobs whose retry budget ran out; under the salvage policy each
        occupies its result slot as a JobFailure sentinel."""
        return len(self.failures)

    def _landed_as(self, outcome: str) -> int:
        return sum(record["outcome"] == outcome
                   for record in self.job_records)


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
    progress:
        ``True`` selects the stderr line, ``False`` forces progress off, and
        any callable receives a :class:`~repro.obs.progress.SweepProgress`
        after every completed cell.
    timeout, retries:
        Per-job deadline (seconds) and retry budget.
    failure_policy:
        ``"strict"`` (raise after retries are exhausted) or ``"salvage"``
        (return JobFailure sentinels in-slot).
    journal:
        Checkpoint/resume (:mod:`repro.runtime.journal`): a directory,
        ``True`` (the directory the environment names, else
        ``REPRO_RUN_DIR/journal``) or ``False`` (force off).

    Every :meth:`run` starts and stops its own workers unless the executor
    is used as a context manager (:meth:`open` / :meth:`close`).
    """

    def __init__(self, jobs: Optional[int | str] = None,
                 cache_dir: Optional[os.PathLike | str] = None,
                 progress: Union[None, bool, Callable] = None,
                 timeout: Union[int, float, str, None] = None,
                 retries: Union[int, str, None] = None,
                 failure_policy: Optional[str] = None,
                 journal: Any = None):
        self.config = config = RuntimeConfig.from_env().overlay(
            jobs=jobs, cache_dir=cache_dir, progress=progress,
            timeout=timeout, retries=retries, failure_policy=failure_policy,
            journal=journal)
        self.cache: Optional[ResultCache] = (
            ResultCache(config.cache_dir, config.cache_max_mb)
            if config.cache_dir is not None else None)
        #: Code-version salt mixed into every cache key.
        self.salt = CODE_VERSION_SALT
        self.last_stats = ExecutorStats()
        self._persistent = False
        self._pool: Optional[_PoolTransport] = None

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
        """Stop the workers (idempotent, safe without any)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.close()

    __enter__ = open

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        self._persistent = False

    def _transport(self, pending: List[SweepJob]) -> Tuple[Any, bool]:
        """``(transport, pool_was_reused)`` for this run's pending jobs.

        In-process or pool is chosen from what the code can observe: one
        worker, or a single cell with no deadline to enforce, needs no pool.
        Workers are primed with exactly the traces the submitted jobs
        reference (worker memory stays bounded by one sweep's working set);
        a ``run()`` whose refs they already hold reuses the warm pool, any
        other restarts it.
        """
        workers = self.config.jobs
        if workers <= 1 or (len(pending) == 1 and self.config.timeout is None):
            return _InProcessTransport(), False
        needed = referenced_keys([job.kwargs for job in pending])
        reused = (self._pool is not None
                  and needed <= self._pool.trace_snapshot.keys())
        if not reused:
            self.close()
            self._pool = _PoolTransport(
                workers if self._persistent else min(workers, len(pending)),
                snapshot_for(needed))
        return self._pool, reused

    # ------------------------------------------------------------------ run
    def run(self, jobs: Sequence[SweepJob]) -> List[Any]:
        """Execute every job, returning results in submission order.

        Cached (or journaled) cells are served without executing; the rest
        walk the attempt state machine of the module docstring, in-process
        or on a ``multiprocessing`` pool.  Jobs whose retry budget ran out
        either raise once the sweep has finished (``strict``) or come back
        as in-slot :class:`~repro.runtime.faults.JobFailure` sentinels
        (``salvage``).
        """
        jobs = list(jobs)
        config = self.config
        started = time.perf_counter()
        results: List[Any] = [None] * len(jobs)
        cache = self.cache
        # Keys are computed up front only for a consumer that reads every
        # one of them; a failure record or backoff draw computes its own.
        keys: List[Optional[str]] = (
            [job.cache_key(self.salt) for job in jobs]
            if cache is not None or config.journal_dir is not None
            else [None] * len(jobs))
        stats = ExecutorStats(total=len(jobs), workers=config.jobs)
        cache_counts = ("corrupt", "evictions", "write_errors")
        cache_before = [getattr(cache, name, 0) for name in cache_counts]
        journal: Optional[RunJournal] = None
        if config.journal_dir is not None and jobs:
            journal = RunJournal(config.journal_dir, run_key_for(keys),
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

        callback = resolve_progress(config.progress)
        served = stats.cache_hits + stats.journal_hits
        progress = None if callback is None else (
            lambda landed, label: callback(SweepProgress.of(
                len(jobs), served, landed, started, label)))
        if progress is not None and jobs:
            progress(0, "")  # served cells are done before anything runs

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
                    transport, pending, jobs, keys, commit, progress,
                    stats.job_records)
        except BaseException:
            # Never orphan workers on an interrupted sweep, persistent pool
            # or not (nor keep one whose workers still run a dead sweep's
            # attempts).  Every cell that completed was committed as it
            # landed, so a rerun resumes instead of restarting.
            self.close()
            raise
        finally:
            if not self._persistent:
                self.close()
            if journal is not None:
                journal.close()

        for index, failure in failures.items():
            results[index] = failure
        stats.failures = [failures[i].to_jsonable() for i in sorted(failures)]
        for name, before in zip(cache_counts, cache_before):  # 0: no cache
            setattr(stats, f"cache_{name}", getattr(cache, name, 0) - before)
        stats.wall_seconds = time.perf_counter() - started
        self.last_stats = stats
        if failures and config.failure_policy == "strict":
            first = min(failures)
            if first in originals:
                raise originals[first]
            raise JobFailureError(failures[first])
        return results

    # ------------------------------------------------------------ the loop
    def _drive(self, transport, pending: List[int], jobs: List[SweepJob],
               keys: List[Optional[str]], commit: Callable[[int, Any], None],
               progress: Optional[Callable[[int, str], None]],
               records: List[Dict[str, Any]]
               ) -> Tuple[Dict[int, JobFailure], Dict[int, BaseException]]:
        """Walk every pending slot through the attempt state machine.

        fresh → inflight → landed.  The clock, the wait and every process
        come from ``transport``, so the loop itself never touches one.  One
        record per landed attempt goes onto ``records``, and ``progress``
        (if any) hears of every landed cell with the number landed so far;
        returns ``(failures, original exceptions)`` by slot.
        """
        config = self.config
        retries, timeout = config.retries, config.timeout
        registry = obs_metrics.registry()
        failures: Dict[int, JobFailure] = {}
        originals: Dict[int, BaseException] = {}
        fresh: Deque[int] = deque(pending)          # attempt 1 not yet sent
        waiting: List[Tuple[float, int, int]] = []  # heap: (due, slot, attempt)
        #: slot -> (attempt, worker pid or None, unix time of submission)
        inflight: Dict[int, Tuple[int, Optional[int], float]] = {}
        deadlines: Dict[int, float] = {}            # inflight slot -> due
        history: Dict[int, List[JobAttempt]] = {}
        unfinished = len(pending)
        capacity = transport.capacity

        def key_of(slot: int) -> str:
            if keys[slot] is None:
                keys[slot] = jobs[slot].cache_key(self.salt)
            return keys[slot]

        submit, wait = transport.submit, transport.wait
        now = transport.now()
        while unfinished:
            # 1. Submit: retries whose backoff elapsed, then fresh slots.  A
            #    slot waits here, off the clock, until a worker is free — so
            #    the deadline is armed at submission, where a pid is named.
            while len(inflight) < capacity:
                if waiting and waiting[0][0] <= now:
                    _, slot, attempt = heapq.heappop(waiting)
                elif fresh:
                    slot, attempt = fresh.popleft(), 1
                else:
                    break
                pid = submit(slot, attempt, jobs[slot])
                inflight[slot] = (attempt, pid, time.time())
                if timeout is not None and pid is not None:
                    deadlines[slot] = transport.now() + timeout

            # 2. Block until a completion lands (a dead worker's attempt
            #    lands as a crash) or something falls due.
            due = waiting[0][0] if waiting else None
            for deadline in deadlines.values():
                if due is None or deadline < due:
                    due = deadline
            completion = wait(None if due is None else max(due - now, 0.0))
            now = transport.now()

            # 3. Every deadline that has passed abandons its attempt: what
            #    already sits in its pipe wins, otherwise the worker is
            #    killed and the attempt lands as a timeout.
            landed = [] if completion is None else [completion]
            if deadlines:
                if completion is not None:
                    deadlines.pop(completion[0], None)
                for slot in [s for s, due in deadlines.items() if due <= now]:
                    del deadlines[slot]
                    landed.append(transport.abandon(slot) or (
                        slot, {"ok": False, "outcome": "timeout"}, None, None))

            # 4. Land each completed attempt, or record why it failed.
            for slot, outcome, meta, snapshot in landed:
                attempt, pid, begun = inflight.pop(slot)
                if snapshot is not None:
                    registry.merge(snapshot)
                if outcome["ok"]:
                    unfinished -= 1
                    records.append(meta)
                    commit(slot, outcome["value"])
                    if progress is not None:
                        progress(len(pending) - unfinished, meta["label"])
                    continue
                tag = outcome["outcome"]
                if meta is None:  # no worker lived to time this attempt
                    meta = {"label": jobs[slot].label, "pid": pid,
                            "start_unix": begun,
                            "wall_seconds": max(time.time() - begun, 0.0),
                            "queue_wait_seconds": 0.0,
                            "attempt": attempt, "outcome": tag}
                records.append(meta)
                if tag == "worker_crash":
                    rec = crash_attempt(attempt)
                elif tag == "timeout":
                    rec = timeout_attempt(attempt, timeout)
                else:
                    rec = JobAttempt(
                        attempt=attempt, outcome="error",
                        error=outcome["error"],
                        error_type=outcome["error_type"],
                        traceback=outcome["traceback"])
                    if outcome["exception"] is not None:
                        originals[slot] = outcome["exception"]
                attempts = history.setdefault(slot, [])
                if attempt <= retries:  # budget left: hashed backoff, resubmit
                    delay = retry_backoff(key_of(slot), attempt,
                                          config.backoff)
                    attempts.append(dataclasses.replace(
                        rec, backoff_seconds=delay))
                    heapq.heappush(waiting, (now + delay, slot, attempt + 1))
                else:                   # exhausted: the failure takes the slot
                    attempts.append(rec)
                    unfinished -= 1
                    failures[slot] = JobFailure(
                        key=key_of(slot), label=jobs[slot].label,
                        attempts=tuple(attempts))
                    if progress is not None:
                        progress(len(pending) - unfinished, jobs[slot].label)
        return failures, originals
