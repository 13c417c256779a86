"""Tests for the fault-tolerance layer: injection, retries, resume.

The load-bearing property mirrors the executor's determinism contract: with
the same seed and the same ``REPRO_FAULTS`` spec, a chaos run produces
byte-identical results *and failure records* whether it executes serially or
on a pool — and a sweep killed mid-run resumes via its journal, re-executing
only the unfinished cells with final aggregates bit-identical to an
uninterrupted run.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.metro.aggregate import aggregate_city
from repro.obs.manifest import executor_record
from repro.obs.trace import sweep_trace_events
from repro.runtime import (FaultInjector, FaultSpec, JobFailure,
                           JobFailureError, ResultCache, RunJournal,
                           SweepExecutor, SweepJob, is_failure,
                           retry_backoff, run_key_for)


# Module-level so jobs survive pickling into pool workers.
def _double(value: int, fail: bool = False) -> int:
    if fail:
        raise ValueError(f"bad value {value}")
    return value * 2


def _sleepy(value: int, seconds: float = 5.0) -> int:
    time.sleep(seconds)
    return value


def _jobs(n: int = 6):
    return [SweepJob(func=_double, kwargs={"value": i}, label=f"j{i}")
            for i in range(n)]


def _canonical_run(results) -> str:
    """A byte-comparable rendering of a run's results + failure records."""
    return json.dumps(
        [r.to_jsonable() if is_failure(r) else r for r in results],
        sort_keys=True)


# A spec that exercises every process-level fault kind with enough density
# to hit several of the six _jobs() cells.
CHAOS = "job_error:0.4,worker_crash:0.3,job_hang:0.2,seed:11"


# ------------------------------------------------------------- spec parsing
def test_fault_spec_parsing_roundtrip():
    spec = FaultSpec.parse("worker_crash:0.02, job_hang:0.01, seed:7")
    assert spec.seed == 7
    assert spec.rate("worker_crash") == 0.02
    assert spec.rate("job_hang") == 0.01
    assert spec.rate("job_error") == 0.0
    assert spec.active
    assert FaultSpec.parse(spec.describe()) == spec


@pytest.mark.parametrize("raw", [
    "explode:0.5",            # unknown kind
    "worker_crash",           # missing probability
    "worker_crash:lots",      # non-numeric probability
    "worker_crash:1.5",       # out of range
    "job_error:0.1,job_error:0.2",  # duplicate kind
    "seed:pi",                # non-integer seed
])
def test_fault_spec_rejects_bad_tokens(raw):
    with pytest.raises(ValueError):
        FaultSpec.parse(raw)


def test_injected_hang_requires_timeout():
    with pytest.raises(ValueError, match="job_hang"):
        SweepExecutor(jobs=1, faults="job_hang:0.5")
    # With a timeout the same spec is accepted.
    SweepExecutor(jobs=1, faults="job_hang:0.5", timeout=1.0)


def test_fault_decisions_are_pure_functions():
    spec = FaultSpec.parse("job_error:0.5,seed:9")
    a, b = FaultInjector(spec), FaultInjector(spec)
    decisions = [a.should("job_error", f"key{i}", 1) for i in range(64)]
    assert decisions == [b.should("job_error", f"key{i}", 1) for i in range(64)]
    assert any(decisions) and not all(decisions)
    # A different seed draws a different pattern.
    other = FaultInjector(FaultSpec.parse("job_error:0.5,seed:10"))
    assert decisions != [other.should("job_error", f"key{i}", 1)
                         for i in range(64)]


def test_retry_backoff_is_deterministic_and_bounded():
    first = retry_backoff("k", 1, base=0.1, seed=4)
    assert first == retry_backoff("k", 1, base=0.1, seed=4)
    assert 0.05 <= first < 0.1                     # base window, jittered
    assert 0.1 <= retry_backoff("k", 2, base=0.1, seed=4) < 0.2
    assert retry_backoff("k", 99, base=0.1, seed=4) <= 30.0  # capped
    assert retry_backoff("k", 1, base=0.0, seed=4) == 0.0


# ------------------------------------------------------- chaos determinism
def test_chaos_byte_identical_serial_vs_parallel():
    """The acceptance pin: same seed + spec => byte-identical records."""
    kwargs = dict(faults=CHAOS, retries=2, backoff=0.0, timeout=1.0,
                  failure_policy="salvage")
    serial = SweepExecutor(jobs=1, **kwargs).run(_jobs())
    serial_again = SweepExecutor(jobs=1, **kwargs).run(_jobs())
    parallel = SweepExecutor(jobs=3, **kwargs).run(_jobs())

    assert any(is_failure(r) for r in serial)       # the spec actually bites
    assert _canonical_run(serial) == _canonical_run(serial_again)
    assert _canonical_run(serial) == _canonical_run(parallel)
    # Slot-by-slot the records compare equal as values too (pickle bytes can
    # differ only via memoization of shared string identities, never values).
    assert serial == parallel
    for left, right in zip(serial, parallel):
        assert json.dumps(left.to_jsonable() if is_failure(left) else left,
                          sort_keys=True) == \
            json.dumps(right.to_jsonable() if is_failure(right) else right,
                       sort_keys=True)


def test_chaos_failure_records_carry_attempt_history():
    executor = SweepExecutor(jobs=1, faults="job_error:1.0,seed:2",
                             retries=2, backoff=0.01,
                             failure_policy="salvage")
    (result,) = executor.run(_jobs(1))
    assert is_failure(result)
    assert [a.attempt for a in result.attempts] == [1, 2, 3]
    assert all(a.outcome == "error" for a in result.attempts)
    assert all(a.injected for a in result.attempts)
    assert all(a.error_type == "FaultInjectionError" for a in result.attempts)
    # Backoff precedes every attempt but the last, deterministically.
    assert [a.backoff_seconds > 0 for a in result.attempts] == [
        True, True, False]
    assert result.attempts[0].backoff_seconds == retry_backoff(
        result.key, 1, 0.01, seed=2)
    stats = executor.last_stats
    assert (stats.retries, stats.failed_jobs) == (2, 1)
    assert stats.failures == [result.to_jsonable()]


def test_retries_recover_transient_faults():
    """A fault that hits attempt 1 but not attempt 2 costs a retry, not
    the job: with enough budget the sweep completes cleanly."""
    spec = FaultSpec.parse("job_error:0.4,seed:11")
    injector = FaultInjector(spec)
    executor = SweepExecutor(jobs=1, faults=spec, retries=6, backoff=0.0)
    jobs = _jobs()
    results = executor.run(jobs)
    assert results == [_double(i) for i in range(6)]
    # The spec fired on at least one first attempt (else the test is vacuous).
    keys = [job.cache_key(executor.salt) for job in jobs]
    assert any(injector.should("job_error", key, 1) for key in keys)
    assert executor.last_stats.retries > 0
    assert executor.last_stats.failed_jobs == 0


# ------------------------------------------------------------ timeouts
def test_timeout_kills_wedged_parallel_job():
    executor = SweepExecutor(jobs=2, timeout=0.5, retries=0,
                             failure_policy="salvage")
    ok, slow = executor.run([
        SweepJob(func=_double, kwargs={"value": 4}, label="fast"),
        SweepJob(func=_sleepy, kwargs={"value": 1, "seconds": 30.0},
                 label="slow"),
    ])
    assert ok == 8
    assert is_failure(slow) and slow.outcome == "timeout"
    assert "0.5" in slow.last.error
    assert executor.last_stats.timeouts == 1
    assert executor.last_stats.failed_jobs == 1


def test_injected_hang_times_out_serial_and_parallel_identically():
    kwargs = dict(faults="job_hang:1.0,seed:5", timeout=0.5, retries=1,
                  backoff=0.0, failure_policy="salvage")
    serial = SweepExecutor(jobs=1, **kwargs).run(_jobs(2))
    parallel = SweepExecutor(jobs=2, **kwargs).run(_jobs(2))
    assert all(is_failure(r) and r.outcome == "timeout" for r in serial)
    assert _canonical_run(serial) == _canonical_run(parallel)


def test_worker_crash_detected_and_resubmitted():
    """A crash on attempt 1 only: the worker is replaced and the
    resubmitted attempt completes the sweep."""
    executor = SweepExecutor(jobs=2, faults="worker_crash:0.3,seed:11",
                             retries=2, backoff=0.0, timeout=10.0)
    results = executor.run(_jobs())
    assert results == [_double(i) for i in range(6)]
    assert executor.last_stats.worker_crashes > 0
    assert executor.last_stats.retries > 0
    assert executor.last_stats.failed_jobs == 0


def test_error_on_a_replacement_worker_matches_the_serial_traceback():
    """A replacement must not be forked inside the handler that saw its
    predecessor's end of file: it would inherit that exception as context
    and chain every traceback it later captures to it."""
    (job,) = _jobs(1)
    key = job.cache_key(SweepExecutor(jobs=1).salt)

    def crash_then_error(seed: int) -> bool:
        injector = FaultInjector(FaultSpec.parse(
            f"worker_crash:0.5,job_error:0.5,seed:{seed}"))
        return (injector.should("worker_crash", key, 1)
                and not injector.should("worker_crash", key, 2)
                and injector.should("job_error", key, 2))

    seed = next(seed for seed in range(1000) if crash_then_error(seed))
    kwargs = dict(faults=f"worker_crash:0.5,job_error:0.5,seed:{seed}",
                  retries=1, backoff=0.0, timeout=10.0,
                  failure_policy="salvage")
    (serial,) = SweepExecutor(jobs=1, **kwargs).run([job])
    # One cell with a deadline to enforce: a pool of one worker, so only
    # the crashed worker's replacement can have run attempt 2.
    (parallel,) = SweepExecutor(jobs=2, **kwargs).run([job])
    assert [a.outcome for a in parallel.attempts] == ["worker_crash", "error"]
    assert "FaultInjectionError" in parallel.last.traceback
    assert "During handling" not in parallel.last.traceback
    assert parallel.last.traceback == serial.last.traceback
    assert _canonical_run([serial]) == _canonical_run([parallel])


def test_worker_killed_between_runs_is_replaced_without_charge():
    """A persistent executor's worker that died *idle* is not an attempt's
    fault: the next run replaces it at submission and charges nothing."""
    with SweepExecutor(jobs=2, retries=0) as executor:
        assert executor.run(_jobs(4)) == [0, 2, 4, 6]
        victim = executor.last_stats.job_records[0]["pid"]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while victim in [p.pid for p in multiprocessing.active_children()]:
            assert time.monotonic() < deadline, "the worker did not die"
            time.sleep(0.01)
        assert executor.run(_jobs(6)) == [0, 2, 4, 6, 8, 10]
        stats = executor.last_stats
        assert stats.pool_reused
        assert (stats.worker_crashes, stats.retries, stats.failed_jobs) == (
            0, 0, 0)
        assert victim not in {r["pid"] for r in stats.job_records}
        assert len(multiprocessing.active_children()) == 2
    assert multiprocessing.active_children() == []


def _unpicklable(value: int):
    return lambda: value                 # a local function cannot be pickled


def test_unpicklable_result_is_an_error_attempt_not_a_hang():
    jobs = _jobs(3)
    jobs[1] = SweepJob(func=_unpicklable, kwargs={"value": 1}, label="bad")
    executor = SweepExecutor(jobs=2, failure_policy="salvage")
    results = executor.run(jobs)
    assert results[0] == 0 and results[2] == 4
    assert is_failure(results[1]) and results[1].outcome == "error"
    assert "pickle" in results[1].last.error.lower()
    assert executor.last_stats.worker_crashes == 0
    # Nothing survived to re-raise, so strict wraps the record.
    with pytest.raises(JobFailureError):
        SweepExecutor(jobs=2).run(jobs)


# ------------------------------------------------------ strict vs salvage
def test_strict_policy_reraises_original_exception():
    jobs = [SweepJob(func=_double, kwargs={"value": 1}),
            SweepJob(func=_double, kwargs={"value": 2, "fail": True})]
    for workers in (1, 2):
        executor = SweepExecutor(jobs=workers, retries=1, backoff=0.0)
        with pytest.raises(ValueError, match="bad value 2"):
            executor.run(jobs)
        # Stats and failure records are assembled before the raise.
        assert executor.last_stats.failed_jobs == 1
        assert executor.last_stats.retries == 1
        assert len(executor.last_stats.failures) == 1


def test_strict_policy_wraps_recordless_failures():
    executor = SweepExecutor(jobs=1, faults="worker_crash:1.0,seed:1",
                             retries=0, timeout=5.0)
    with pytest.raises(JobFailureError) as excinfo:
        executor.run(_jobs(1))
    assert excinfo.value.failure.outcome == "worker_crash"


def test_salvage_policy_returns_sentinels_in_slot():
    jobs = [SweepJob(func=_double, kwargs={"value": 1}),
            SweepJob(func=_double, kwargs={"value": 2, "fail": True}),
            SweepJob(func=_double, kwargs={"value": 3})]
    results = SweepExecutor(jobs=1, retries=0,
                            failure_policy="salvage").run(jobs)
    assert results[0] == 2 and results[2] == 6
    assert is_failure(results[1])
    assert results[1].last.error_type == "ValueError"
    assert "bad value 2" in results[1].last.error
    assert "ValueError" in results[1].last.traceback


def test_per_run_policy_overrides_executor_policy():
    executor = SweepExecutor(jobs=1, retries=0)  # strict by default
    jobs = [SweepJob(func=_double, kwargs={"value": 2, "fail": True})]
    (sentinel,) = executor.run(jobs, failure_policy="salvage")
    assert is_failure(sentinel)
    with pytest.raises(ValueError):
        executor.run(jobs)


def test_aggregate_city_excludes_salvaged_cells():
    good = {"cell": "c0", "utilization": 0.9,
            "base_throughputs_bps": [1e6], "churn_throughputs_bps": [],
            "fct_s": [], "offered_flows": 1, "completed_flows": 1,
            "drops": 0, "queuing_hist": [0] * 58}
    bad = JobFailure(key="k", label="c1")
    city = aggregate_city([good, bad])
    assert city["cells"] == 1
    assert city["failed_cells"] == 1
    assert city["utilization_mean"] == pytest.approx(0.9)
    # Complete runs keep their golden-pinned layout.
    assert "failed_cells" not in aggregate_city([good])
    with pytest.raises(ValueError, match="1 failed"):
        aggregate_city([bad])


# ------------------------------------------------------- checkpoint/resume
def _interrupt_after(n: int):
    """A progress callback that raises KeyboardInterrupt mid-sweep."""
    state = {"calls": 0}

    def callback(progress):
        state["calls"] += 1
        # The tracker emits one initial tick before any job completes.
        if state["calls"] == n + 1:
            raise KeyboardInterrupt

    return callback


@pytest.mark.parametrize("use_cache", [False, True])
def test_journal_resume_executes_exactly_missing_cells(tmp_path, use_cache):
    cache_dir = (tmp_path / "cache") if use_cache else None
    jdir = tmp_path / "journal"
    jobs = _jobs()

    interrupted = SweepExecutor(jobs=1, cache_dir=cache_dir, journal=jdir,
                                progress=_interrupt_after(3))
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(jobs)

    resumed = SweepExecutor(jobs=1, cache_dir=cache_dir, journal=jdir,
                            progress=False)
    results = resumed.run(jobs)
    stats = resumed.last_stats
    assert stats.executed == 3                       # exactly the missing ones
    if use_cache:
        assert stats.cache_hits == 3 and stats.journal_hits == 0
    else:
        assert stats.journal_hits == 3 and stats.cache_hits == 0

    reference = SweepExecutor(jobs=1).run(jobs)
    assert pickle.dumps(results) == pickle.dumps(reference)


def test_journal_is_keyed_by_job_content(tmp_path):
    """A different sweep (or changed code salt) gets a fresh journal."""
    jdir = tmp_path / "journal"
    first = SweepExecutor(jobs=1, journal=jdir)
    first.run(_jobs(3))
    other = SweepExecutor(jobs=1, journal=jdir)
    other.run(_jobs(4))                              # different grid
    assert len(list(jdir.glob("run-*.journal"))) == 2
    # Identical grid resumes instead of re-running.
    replay = SweepExecutor(jobs=1, journal=jdir)
    replay.run(_jobs(3))
    assert replay.last_stats.executed == 0
    assert replay.last_stats.journal_hits == 3


def test_journal_tolerates_torn_tail(tmp_path):
    jdir = tmp_path / "journal"
    executor = SweepExecutor(jobs=1, journal=jdir)
    jobs = _jobs(3)
    executor.run(jobs)
    path = next(jdir.glob("run-*.journal"))
    path.write_text(path.read_text() + '{"key": "tor')   # crash mid-append
    keys = [job.cache_key(executor.salt) for job in jobs]
    journal = RunJournal(jdir, run_key_for(keys))
    assert len(journal.load()) == 3


def test_run_key_is_order_independent():
    keys = [f"key-{i}" for i in range(5)]
    assert run_key_for(keys) == run_key_for(list(reversed(keys)))
    assert run_key_for(keys) != run_key_for(keys[:-1])


def test_failed_cells_are_not_journaled(tmp_path):
    jdir = tmp_path / "journal"
    executor = SweepExecutor(jobs=1, journal=jdir,
                             faults="job_error:1.0,seed:2", retries=0,
                             failure_policy="salvage")
    (sentinel,) = executor.run(_jobs(1))
    assert is_failure(sentinel)
    # A later run without faults re-executes the cell from scratch.
    retry = SweepExecutor(jobs=1, journal=jdir)
    (value,) = retry.run(_jobs(1))
    assert value == 0
    assert retry.last_stats.executed == 1


def test_fuzz_campaign_resume_and_salvage(tmp_path):
    from repro.fuzz.campaign import run_campaign

    jdir = tmp_path / "journal"
    first = run_campaign(budget=2, seed=3, jobs=1, shrink=False,
                         check_determinism=False, journal=jdir)
    # Resume of the identical campaign executes nothing new.
    executor = SweepExecutor(jobs=1, journal=jdir)
    resumed = run_campaign(budget=2, seed=3, executor=executor, shrink=False,
                           check_determinism=False)
    assert executor.last_stats.executed == 0
    assert executor.last_stats.journal_hits == 2
    assert resumed == first
    assert first["failed_jobs"] == []

    # Salvage: an exhausted scenario becomes a failed_jobs entry, and the
    # report stays deterministic under the same fault spec.
    def chaos_campaign():
        chaos_executor = SweepExecutor(jobs=1, faults="job_error:0.6,seed:4",
                                       retries=0)
        return run_campaign(budget=3, seed=3, executor=chaos_executor,
                            shrink=False, check_determinism=False,
                            failures="salvage")
    report = chaos_campaign()
    assert report["format"] == 3
    assert len(report["failed_jobs"]) > 0
    assert not report["clean"]
    assert report == chaos_campaign()


# ---------------------------------------------------------- cache satellite
def test_cache_write_failure_degrades_to_miss(tmp_path, monkeypatch, capsys):
    cache = ResultCache(tmp_path / "cache")

    def refuse(*args, **kwargs):
        raise PermissionError("read-only file system")

    monkeypatch.setattr("repro.runtime.cache.tempfile.mkstemp", refuse)
    cache.put("a" * 64, {"value": 1})                # must not raise
    assert cache.write_errors == 1
    assert len(cache) == 0
    assert "cache write failed" in capsys.readouterr().err
    hit, _ = cache.get("a" * 64)
    assert not hit


def test_read_only_cache_dir_does_not_crash_sweep(tmp_path):
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    cache_dir.chmod(0o500)
    try:
        probe = cache_dir / "probe"
        writable = True
        try:
            probe.mkdir()
            probe.rmdir()
        except OSError:
            writable = False
        if writable:
            pytest.skip("running with CAP_DAC_OVERRIDE; chmod cannot "
                        "produce a read-only dir")
        executor = SweepExecutor(jobs=1, cache_dir=cache_dir)
        assert executor.run(_jobs(3)) == [0, 2, 4]
        assert executor.last_stats.cache_write_errors == 3
    finally:
        cache_dir.chmod(0o700)


def test_injected_cache_write_faults_are_counted(tmp_path):
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path / "cache",
                             faults="cache_write_fail:1.0,seed:1")
    assert executor.run(_jobs(3)) == [0, 2, 4]
    assert executor.last_stats.cache_write_errors == 3
    # Nothing was cached: the replay executes everything again.
    replay = SweepExecutor(jobs=1, cache_dir=tmp_path / "cache")
    replay.run(_jobs(3))
    assert replay.last_stats.executed == 3


# ----------------------------------------------------- observability hooks
def test_manifest_records_failures_and_retry_stats():
    executor = SweepExecutor(jobs=1, faults="job_error:1.0,seed:2",
                             retries=1, backoff=0.0,
                             failure_policy="salvage")
    executor.run(_jobs(1))
    record = executor_record(executor)
    assert record["retries"] == 1
    assert record["failed_jobs"] == 1
    assert len(record["failures"]) == 1
    assert record["failures"][0]["attempts"][0]["outcome"] == "error"
    json.dumps(record)                                # JSON-able end to end

    # A clean run keeps the legacy manifest layout (no zero-noise keys).
    clean = SweepExecutor(jobs=1)
    clean.run(_jobs(1))
    clean_record = executor_record(clean)
    assert "failures" not in clean_record
    assert "retries" not in clean_record


def test_trace_renders_retried_attempts_as_spans():
    records = [
        {"label": "cell-a", "pid": 10, "start_unix": 100.0,
         "wall_seconds": 0.2, "attempt": 1, "outcome": "error"},
        {"label": "cell-a", "pid": 11, "start_unix": 101.0,
         "wall_seconds": 0.3, "attempt": 2, "outcome": "ok"},
        {"label": "cell-b", "pid": None, "start_unix": 100.5,
         "wall_seconds": 0.1, "attempt": 1, "outcome": "worker_crash"},
        {"label": "cell-c", "pid": 10, "start_unix": 102.0,
         "wall_seconds": 0.2},
    ]
    events = sweep_trace_events(records)
    spans = {e["name"]: e for e in events if e.get("ph") == "X"}
    assert spans["cell-a [attempt 1]"]["cat"] == "retry"
    assert spans["cell-a [attempt 2]"]["cat"] == "retry"
    assert spans["cell-b [attempt 1]"]["cat"] == "worker_crash"
    assert spans["cell-c"]["cat"] == "sweep"
    # Unattributed records land on their own labelled row.
    names = [e["args"]["name"] for e in events if e.get("ph") == "M"]
    assert "unattributed" in names


def test_resilient_job_records_tag_attempts():
    executor = SweepExecutor(jobs=1, faults="job_error:1.0,seed:2",
                             retries=1, backoff=0.0,
                             failure_policy="salvage")
    executor.run(_jobs(1))
    outcomes = [(r["attempt"], r["outcome"])
                for r in executor.last_stats.job_records]
    assert outcomes == [(1, "error"), (2, "error")]


# --------------------------------------------------------- SIGINT cleanup
_SIGINT_SCRIPT = textwrap.dedent("""
    import multiprocessing
    import sys
    import time

    sys.path.insert(0, {src!r})
    from repro.runtime import SweepExecutor, SweepJob
    from tests.test_runtime_faults import _sleepy

    def children():
        return len(multiprocessing.active_children())

    if __name__ == "__main__":
        with SweepExecutor(jobs=2) as executor:
            jobs = [SweepJob(func=_sleepy,
                             kwargs={{"value": i, "seconds": seconds}})
                    for i in range(2) for seconds in (60.0, 0.0)]
            print("READY", flush=True)
            try:
                executor.run(jobs[::2])
            except KeyboardInterrupt:
                # The executor must have killed and reaped its workers.
                print(f"ORPHANS {{children()}}", flush=True)
            else:
                print("ORPHANS unreachable", flush=True)
                sys.exit(1)
            executor.run(jobs[1::2])     # the next run starts fresh ones
            print(f"RESTARTED {{children()}}", flush=True)
        # close() stops idle workers too, although each later one holds a
        # copy of the parent's end of every earlier worker's pipe.
        print(f"CLOSED {{children()}}", flush=True)
""")


def test_sigint_leaves_no_orphaned_workers(tmp_path):
    repo_root = Path(__file__).resolve().parents[1]
    script = tmp_path / "sigint_child.py"
    script.write_text(_SIGINT_SCRIPT.format(src=str(repo_root / "src")))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src"), str(repo_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen([sys.executable, str(script)],
                             stdout=subprocess.PIPE, text=True, env=env,
                             cwd=repo_root)
    try:
        assert child.stdout.readline().strip() == "READY"
        time.sleep(0.3)                  # let run() start its workers
        child.send_signal(signal.SIGINT)
        out, _ = child.communicate(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 0, out
    assert out.split("\n")[:3] == ["ORPHANS 0", "RESTARTED 2", "CLOSED 0"]


# ------------------------------------------------ the default executor
# No timeout, retries, faults or journal configured: the loop every figure
# sweep uses must give the same guarantees as the configured one.
def _fragile(value: int, die: bool = False, fail: bool = False) -> int:
    if die:
        os._exit(3)                      # an OOM kill, as the parent sees it
    return _double(value, fail=fail)


def test_default_parallel_run_survives_dead_worker():
    jobs = [SweepJob(func=_fragile, kwargs={"value": i, "die": i == 1},
                     label=f"j{i}") for i in range(4)]
    executor = SweepExecutor(jobs=2)
    with pytest.raises(JobFailureError) as excinfo:
        executor.run(jobs)
    assert excinfo.value.failure.outcome == "worker_crash"
    assert executor.last_stats.worker_crashes == 1

    results = SweepExecutor(jobs=2, failure_policy="salvage").run(jobs)
    assert [results[i] for i in (0, 2, 3)] == [0, 4, 6]
    assert is_failure(results[1]) and results[1].outcome == "worker_crash"


@pytest.mark.parametrize("workers", [1, 2])
def test_completed_cells_are_committed_and_stats_fresh(tmp_path, workers):
    jobs = [SweepJob(func=_fragile, kwargs={"value": i, "fail": i == 3},
                     label=f"j{i}") for i in range(4)]
    executor = SweepExecutor(jobs=workers, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="bad value 3"):
        executor.run(jobs)
    # last_stats describes *this* run, assembled before the raise ...
    assert executor.last_stats.executed == 4
    assert executor.last_stats.failed_jobs == 1
    # ... and the three cells that completed were cached as they landed.
    rerun = SweepExecutor(jobs=workers, cache_dir=tmp_path,
                          failure_policy="salvage")
    rerun.run(jobs)
    assert rerun.last_stats.cache_hits == 3


@pytest.mark.parametrize("workers", [1, 2])
def test_interrupted_run_keeps_completed_cells(tmp_path, workers):
    interrupted = SweepExecutor(jobs=workers, cache_dir=tmp_path,
                                progress=_interrupt_after(2))
    with pytest.raises(KeyboardInterrupt):
        interrupted.run(_jobs(4))
    rerun = SweepExecutor(jobs=workers, cache_dir=tmp_path, progress=False)
    assert rerun.run(_jobs(4)) == [0, 2, 4, 6]
    assert rerun.last_stats.cache_hits == 2
