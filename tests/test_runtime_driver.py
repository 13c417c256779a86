"""The executor's attempt state machine on a fake clock — no forks, no sleeps.

``SweepExecutor._drive`` reaches the clock, the wait and every worker
process only through its transport (``capacity`` / ``now`` / ``submit → pid``
/ ``wait`` / ``abandon``), so these tests hand it a *scripted* one: every
``(slot, attempt)`` names what its worker will do and how long after
submission (complete, raise, die — or nothing: it wedges), and the clock
jumps straight to whichever comes first — the next scripted event or the
moment the driver asked to be woken.  Each case runs in milliseconds.

The real-process tests in ``test_runtime_faults.py`` stay as the bridge
between this script and the pipes.
"""

from __future__ import annotations

import heapq
import multiprocessing
import time

import pytest

from repro.runtime.executor import SweepExecutor
from repro.runtime.faults import JobFailureError, is_failure, retry_backoff
from repro.runtime.faults import crash_attempt, timeout_attempt
from repro.runtime.spec import SweepJob


@pytest.fixture(autouse=True)
def _no_processes_no_sleeps(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the driver tests must not fork or sleep")

    monkeypatch.setattr(multiprocessing, "Process", forbidden)
    monkeypatch.setattr(time, "sleep", forbidden)


def _never_runs(value: int) -> int:
    raise AssertionError("a scripted transport never runs the job body")


def _jobs(n: int):
    return [SweepJob(func=_never_runs, kwargs={"value": i}, label=f"j{i}")
            for i in range(n)]


def ok(value):
    return {"ok": True, "value": value}


def error(message: str = "boom"):
    return {"ok": False, "outcome": "error", "error": message,
            "error_type": "ValueError", "traceback": f"tb {message}",
            "exception": ValueError(message)}


#: The worker dies: end of file on its pipe, no completion in it.
DIES = {"ok": False, "outcome": "worker_crash"}


class ScriptedTransport:
    """A transport whose every event is written down in advance.

    ``script[(slot, attempt)]`` is ``(seconds after submission, outcome)``;
    an attempt without an entry wedges until it is abandoned.  Every
    submission runs on a fresh pid, 100 + its position in ``submitted``.
    """

    def __init__(self, script, capacity):
        self.script = script
        self.capacity = capacity
        self.clock = 0.0
        self.submitted = []           # (clock, slot, attempt)
        self.abandoned = []           # (clock, slot)
        self.killed = []              # (clock, pid)
        self._pipes = []              # heap: (readable at, seq, slot, outcome)
        self._busy = {}               # slot -> (pid, attempt)

    def now(self):
        return self.clock

    def submit(self, slot, attempt, job):
        assert len(self._busy) < self.capacity, "no idle worker"
        pid = 100 + len(self.submitted)
        self.submitted.append((self.clock, slot, attempt))
        self._busy[slot] = (pid, attempt)
        if (slot, attempt) in self.script:
            delay, outcome = self.script[(slot, attempt)]
            heapq.heappush(self._pipes, (self.clock + delay,
                                         len(self.submitted), slot, outcome))
        return pid

    def _read(self, slot, outcome):
        pid, attempt = self._busy.pop(slot)
        if outcome is DIES:
            return slot, outcome, None, None
        meta = {"label": f"j{slot}", "pid": pid, "start_unix": 0.0,
                "wall_seconds": 0.0, "queue_wait_seconds": 0.0,
                "attempt": attempt,
                "outcome": "ok" if outcome["ok"] else "error"}
        return slot, outcome, meta, None

    def wait(self, timeout):
        wake = None if timeout is None else self.clock + timeout
        if not self._pipes or (wake is not None
                               and self._pipes[0][0] > wake):
            assert wake is not None, "the driver would block forever"
            self.clock = wake
            return None
        at, _, slot, outcome = heapq.heappop(self._pipes)
        self.clock = max(self.clock, at)
        return self._read(slot, outcome)

    def abandon(self, slot):
        self.abandoned.append((self.clock, slot))
        mine = [entry for entry in self._pipes if entry[2] == slot]
        self._pipes = [entry for entry in self._pipes if entry[2] != slot]
        heapq.heapify(self._pipes)
        if mine and mine[0][0] <= self.clock:    # already in the pipe
            return self._read(slot, mine[0][3])
        self.killed.append((self.clock, self._busy.pop(slot)[0]))
        return None


def _run(script, n_jobs=1, policy="salvage", capacity=2, **knobs):
    """Drive ``n_jobs`` scripted cells: (results, executor, transport)."""
    executor = SweepExecutor(jobs=2, progress=False, journal=False,
                             failure_policy=policy, **knobs)
    transport = ScriptedTransport(script, capacity)
    executor._transport = lambda pending: (transport, False)
    return executor.run(_jobs(n_jobs)), executor, transport


# ------------------------------------------------------------- deadlines
def test_timeout_is_finalised_with_the_canonical_record_and_one_kill():
    results, executor, transport = _run({}, timeout=2.0)      # it wedges
    (failure,) = results
    assert failure.attempts == (timeout_attempt(1, 2.0),)
    assert transport.abandoned == [(2.0, 0)]     # once, at the deadline
    assert transport.killed == [(2.0, 100)]
    assert executor.last_stats.timeouts == 1
    assert executor.last_stats.worker_crashes == 0
    (record,) = executor.last_stats.job_records
    assert (record["pid"], record["outcome"]) == (100, "timeout")


def test_completion_already_in_the_pipe_beats_the_deadline():
    # Both cells finish at t=1.0, which is also their deadline.  The wake-up
    # reads cell 0; cell 1's deadline has passed by then, but its completion
    # already sits in its pipe: abandon returns it, nothing is killed.
    results, executor, transport = _run({
        (0, 1): (1.0, ok("first read")),
        (1, 1): (1.0, ok("in the pipe")),
    }, n_jobs=2, timeout=1.0)
    assert results == ["first read", "in the pipe"]
    assert transport.abandoned == [(1.0, 1)]
    assert transport.killed == []
    assert executor.last_stats.timeouts == 0
    assert executor.last_stats.failed_jobs == 0


def test_deadline_runs_from_each_cells_own_submission():
    # Three cells on two workers, one-second timeout.  Cell 2 waits in the
    # parent — off the clock — until cell 1 frees a worker at t=0.5, then
    # runs 0.8 s: it ends 1.3 s after run() began and is fine.
    script = {(0, 1): (0.9, ok("a")), (1, 1): (0.5, ok("b")),
              (2, 1): (0.8, ok("late in the run, on time for itself"))}
    results, executor, transport = _run(script, n_jobs=3, timeout=1.0)
    assert results[2] == "late in the run, on time for itself"
    assert transport.submitted[2] == (0.5, 2, 1)
    assert transport.abandoned == []

    # The same cell wedged: abandoned at *its* submission + timeout.
    del script[(2, 1)]
    results, executor, transport = _run(script, n_jobs=3, timeout=1.0)
    assert results[:2] == ["a", "b"] and results[2].outcome == "timeout"
    assert transport.abandoned == [(0.5 + 1.0, 2)]
    assert transport.killed == [(1.5, 102)]


def test_two_deadlines_expiring_in_one_wake_up_are_both_landed():
    results, executor, transport = _run({}, n_jobs=2, timeout=1.0)
    assert [r.outcome for r in results] == ["timeout", "timeout"]
    assert transport.abandoned == [(1.0, 0), (1.0, 1)]
    assert transport.killed == [(1.0, 100), (1.0, 101)]
    assert executor.last_stats.timeouts == 2


# --------------------------------------------------------- worker deaths
def test_dead_worker_is_landed_as_a_crash_with_the_canonical_record():
    results, executor, transport = _run({(0, 1): (0.2, DIES)})
    (failure,) = results
    assert failure.attempts == (crash_attempt(1),)
    assert transport.abandoned == []          # nothing left to kill
    assert executor.last_stats.worker_crashes == 1
    (record,) = executor.last_stats.job_records
    assert (record["pid"], record["outcome"]) == (100, "worker_crash")

    with pytest.raises(JobFailureError) as excinfo:
        _run({(0, 1): (0.2, DIES)}, policy="strict")
    assert excinfo.value.failure.outcome == "worker_crash"


def test_crash_lands_in_the_wake_up_that_saw_it(monkeypatch):
    # With no backoff the retry goes out at the instant of the death: the
    # expected clock has no polling or grace term in it, timeout or not.
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0")
    results, executor, transport = _run({
        (0, 1): (0.2, DIES), (0, 2): (0.3, ok("second worker"))},
        retries=1, timeout=60.0)
    assert results == ["second worker"]
    assert transport.submitted == [(0.0, 0, 1), (0.2, 0, 2)]
    assert transport.clock == 0.5
    assert transport.abandoned == []
    assert (executor.last_stats.worker_crashes,
            executor.last_stats.retries) == (1, 1)


# ---------------------------------------------------------------- retries
def test_retry_is_resubmitted_only_after_its_seeded_backoff(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
    results, executor, transport = _run({
        (0, 1): (0.25, error()),
        (0, 2): (0.25, ok("second time lucky")),
    }, retries=1)
    key = _jobs(1)[0].cache_key(executor.salt)
    delay = retry_backoff(key, 1, 0.5)
    assert 0.25 <= delay < 0.5
    assert results == ["second time lucky"]
    assert transport.submitted == [(0.0, 0, 1), (0.25 + delay, 0, 2)]
    assert executor.last_stats.retries == 1
    assert [(r["attempt"], r["outcome"])
            for r in executor.last_stats.job_records] == [(1, "error"),
                                                          (2, "ok")]


def test_exhausted_budget_leaves_the_full_history_in_slot(monkeypatch):
    monkeypatch.setenv("REPRO_RETRY_BACKOFF", "0.5")
    script = {
        (0, 1): (0.1, ok("fine")),
        (1, 1): (0.1, error("first")),
        (1, 2): (0.2, DIES),
        (1, 3): (0.1, error("last")),
    }
    results, executor, _ = _run(script, n_jobs=2, retries=2)
    key = _jobs(2)[1].cache_key(executor.salt)
    assert results[0] == "fine"
    failure = results[1]
    assert is_failure(failure) and failure.key == key
    assert [(a.attempt, a.outcome, a.error) for a in failure.attempts] == [
        (1, "error", "first"),
        (2, "worker_crash", crash_attempt(2).error),
        (3, "error", "last")]
    assert [a.backoff_seconds for a in failure.attempts] == [
        retry_backoff(key, 1, 0.5), retry_backoff(key, 2, 0.5), 0.0]
    stats = executor.last_stats
    assert (stats.retries, stats.worker_crashes, stats.failed_jobs) == (2, 1, 1)
    assert stats.failures == [failure.to_jsonable()]

    # strict: the sweep still finishes, then the last original exception of
    # the lowest failed slot is raised.
    with pytest.raises(ValueError, match="last"):
        _run(script, n_jobs=2, policy="strict", retries=2)
