"""The executor's attempt state machine on a fake clock — no forks, no sleeps.

``SweepExecutor._drive`` reaches the clock, the wait, pid liveness and the
kill primitive only through its transport, so these tests hand it a
*scripted* one: every ``(slot, attempt)`` names the events that follow its
submission (a start announcement, a completion, a worker death) and the
clock jumps straight to whichever comes first — the next scripted event or
the moment the driver asked to be woken.  Each case runs in milliseconds.

The fork-and-kill tests in ``test_runtime_faults.py`` stay as the bridge
between this script and a real pool.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time

import pytest

from repro.runtime import (JobFailureError, SweepExecutor, SweepJob,
                           is_failure, retry_backoff)
from repro.runtime import executor as executor_module
from repro.runtime.faults import crash_attempt, timeout_attempt

GRACE = executor_module._LATE_RESULT_GRACE_SECONDS


@pytest.fixture(autouse=True)
def _no_processes_no_sleeps(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the driver tests must not fork or sleep")

    monkeypatch.setattr(multiprocessing, "Pool", forbidden)
    monkeypatch.setattr(time, "sleep", forbidden)


def _never_runs(value: int) -> int:
    raise AssertionError("a scripted transport never runs the job body")


def _jobs(n: int):
    return [SweepJob(func=_never_runs, kwargs={"value": i}, label=f"j{i}")
            for i in range(n)]


def ok(value):
    return ("done", {"ok": True, "value": value})


def error(message: str = "boom"):
    return ("done", {"ok": False, "outcome": "error", "error": message,
                     "error_type": "ValueError", "traceback": f"tb {message}",
                     "exception": ValueError(message), "injected": False})


def start(pid: int, run_offset: int = 0):
    return ("start", (pid, run_offset))


def die(pid: int):
    return ("die", pid)


class ScriptedTransport:
    """A transport whose every event is written down in advance.

    ``script[(slot, attempt)]`` is a list of ``(seconds after submission,
    event)``; attempts without an entry never announce and never finish.
    """

    capacity = None

    def __init__(self, script):
        self.script = script
        self.clock = 0.0
        self.submitted = []           # (clock, slot, attempt)
        self.killed = []              # (clock, pid)
        self.forgotten = []           # (clock, slot)
        self._events = []             # heap of (at, seq, event, slot, attempt)
        self._announced = []
        self._pids = set()
        self._dead = set()
        self._run_id = None

    def now(self):
        return self.clock

    def submit(self, run_id, slot, attempt, job, job_key):
        self._run_id = run_id
        self.submitted.append((self.clock, slot, attempt))
        for delay, event in self.script.get((slot, attempt), ()):
            heapq.heappush(self._events, (self.clock + delay,
                                          len(self._events), event, slot,
                                          attempt))

    def wait(self, timeout):
        wake = None if timeout is None else self.clock + timeout
        if not self._events or (wake is not None
                                and self._events[0][0] > wake):
            assert wake is not None, "the driver would block forever"
            self.clock = wake
            return None
        at, _, (kind, payload), slot, attempt = heapq.heappop(self._events)
        self.clock = max(self.clock, at)
        if kind == "done":
            meta = {"label": f"j{slot}", "pid": 1, "start_unix": 0.0,
                    "wall_seconds": 0.0, "queue_wait_seconds": 0.0,
                    "attempt": attempt,
                    "outcome": "ok" if payload["ok"] else "error"}
            return slot, attempt, payload, meta, None
        if kind == "start":
            pid, run_offset = payload
            self._pids.add(pid)
            self._announced.append((self._run_id + run_offset, slot, attempt,
                                    pid))
        else:
            self._dead.add(payload)
        return None

    def starts(self):
        announced, self._announced = self._announced, []
        return announced

    def live_pids(self):
        return self._pids - self._dead

    def kill(self, pid):
        self.killed.append((self.clock, pid))

    def forget(self, slot):
        self.forgotten.append((self.clock, slot))


def _run(script, n_jobs=1, policy="salvage", **knobs):
    """Drive ``n_jobs`` scripted cells; returns (results, executor, transport)."""
    executor = SweepExecutor(jobs=2, progress=False, faults=False,
                             journal=False, failure_policy=policy, **knobs)
    transport = ScriptedTransport(script)
    executor._transport = lambda pending: (transport, False)
    return executor.run(_jobs(n_jobs)), executor, transport


# ------------------------------------------------------------- deadlines
def test_deadline_is_armed_on_announcement_not_submission():
    # Five seconds in the pool's queue against a one-second timeout: queue
    # wait never counts, so cell 0 completes.  Cell 1 announces at t=5 and
    # wedges: condemned at start + timeout, finalised one grace later.
    results, executor, transport = _run({
        (0, 1): [(5.0, start(11)), (5.5, ok("late but fine"))],
        (1, 1): [(5.0, start(12))],
    }, n_jobs=2, timeout=1.0)
    assert results[0] == "late but fine"
    assert is_failure(results[1]) and results[1].outcome == "timeout"
    assert transport.forgotten == [(5.0 + 1.0 + GRACE, 1)]
    assert executor.last_stats.timeouts == 1


def test_timeout_is_finalised_with_the_canonical_record_and_one_kill():
    results, executor, transport = _run({(0, 1): [(0.1, start(12))]},
                                        timeout=2.0)
    (failure,) = results
    assert failure.attempts == (timeout_attempt(1, 2.0, injected=False),)
    assert transport.killed == [(0.1 + 2.0 + GRACE, 12)]   # once, at the end
    assert executor.last_stats.timeouts == 1
    assert executor.last_stats.worker_crashes == 0
    (record,) = executor.last_stats.job_records
    assert (record["pid"], record["outcome"]) == (12, "timeout")


def test_timed_out_attempt_whose_worker_died_is_not_killed():
    # The pid dies inside the grace window: still a timeout, nothing to kill.
    results, _, transport = _run(
        {(0, 1): [(0.1, start(12)), (2.5, die(12))]}, timeout=2.0)
    assert results[0].outcome == "timeout"
    assert transport.killed == []


# --------------------------------------------------------- worker deaths
def test_result_landing_inside_the_grace_window_wins():
    # The worker finished cell 0, wrote its result to the pipe and died on
    # its next task before the parent read the result: dead pid, live result.
    results, executor, transport = _run({
        (0, 1): [(0.1, start(11)), (0.2, die(11)),
                 (0.2 + GRACE / 2, ok("rescued"))]})
    assert results == ["rescued"]
    assert executor.last_stats.worker_crashes == 0
    assert executor.last_stats.failed_jobs == 0
    assert transport.forgotten == [] and transport.killed == []


def test_result_queued_behind_another_completion_still_wins():
    # The grace window expires on the very wake-up that delivers cell 0, and
    # cell 1's result already sits in the completion queue behind it: an
    # attempt is finalised only when the queue was empty.
    late = 0.2 + GRACE
    results, executor, transport = _run({
        (0, 1): [(late, ok("first in the queue"))],
        (1, 1): [(0.1, start(11)), (0.2, die(11)), (late, ok("rescued"))],
    }, n_jobs=2)
    assert results == ["first in the queue", "rescued"]
    assert executor.last_stats.worker_crashes == 0
    assert transport.forgotten == []


def test_dead_worker_is_finalised_as_a_crash_after_the_grace_window():
    results, executor, transport = _run(
        {(0, 1): [(0.1, start(11)), (0.2, die(11))]})
    (failure,) = results
    assert failure.attempts == (crash_attempt(1, injected=False),)
    assert transport.forgotten == [(0.2 + GRACE, 0)]
    assert transport.killed == []             # nothing left to kill
    assert executor.last_stats.worker_crashes == 1

    with pytest.raises(JobFailureError) as excinfo:
        _run({(0, 1): [(0.1, start(11)), (0.2, die(11))]}, policy="strict")
    assert excinfo.value.failure.outcome == "worker_crash"


def test_start_message_from_another_run_is_ignored():
    # A stale announcement (aborted earlier run on the same start queue)
    # names this slot and a pid that is long dead.  Believing it would
    # condemn a healthy attempt as crashed.
    results, executor, transport = _run({
        (0, 1): [(0.1, start(99, run_offset=-1)), (0.1, die(99)),
                 (0.1 + 3 * GRACE, ok("healthy"))]}, timeout=60.0)
    assert results == ["healthy"]
    assert executor.last_stats.worker_crashes == 0
    assert transport.forgotten == []


# ---------------------------------------------------------------- retries
def test_retry_is_resubmitted_only_after_its_seeded_backoff():
    results, executor, transport = _run({
        (0, 1): [(0.25, error())],
        (0, 2): [(0.25, ok("second time lucky"))],
    }, retries=1, backoff=0.5)
    key = _jobs(1)[0].cache_key(executor.salt)
    delay = retry_backoff(key, 1, 0.5, seed=0)
    assert 0.25 <= delay < 0.5
    assert results == ["second time lucky"]
    assert transport.submitted == [(0.0, 0, 1), (0.25 + delay, 0, 2)]
    assert executor.last_stats.retries == 1
    assert [(r["attempt"], r["outcome"])
            for r in executor.last_stats.job_records] == [(1, "error"),
                                                          (2, "ok")]


def test_exhausted_budget_leaves_the_full_history_in_slot():
    script = {
        (0, 1): [(0.1, ok("fine"))],
        (1, 1): [(0.1, error("first"))],
        (1, 2): [(0.1, start(11)), (0.2, die(11))],
        (1, 3): [(0.1, error("last"))],
    }
    results, executor, _ = _run(script, n_jobs=2, retries=2, backoff=0.5)
    key = _jobs(2)[1].cache_key(executor.salt)
    assert results[0] == "fine"
    failure = results[1]
    assert is_failure(failure) and failure.key == key
    assert [(a.attempt, a.outcome, a.error) for a in failure.attempts] == [
        (1, "error", "first"),
        (2, "worker_crash", crash_attempt(2, False).error),
        (3, "error", "last")]
    assert [a.backoff_seconds for a in failure.attempts] == [
        retry_backoff(key, 1, 0.5, seed=0), retry_backoff(key, 2, 0.5, seed=0),
        0.0]
    stats = executor.last_stats
    assert (stats.retries, stats.worker_crashes, stats.failed_jobs) == (2, 1, 1)
    assert stats.failures == [failure.to_jsonable()]

    # strict: the sweep still finishes, then the last original exception of
    # the lowest failed slot is raised.
    with pytest.raises(ValueError, match="last"):
        _run(script, n_jobs=2, policy="strict", retries=2, backoff=0.5)
