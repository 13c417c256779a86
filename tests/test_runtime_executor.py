"""Tests for the parallel sweep executor and its deterministic result cache.

The load-bearing property: a sweep's metrics are bit-for-bit identical
whether it runs serially, on a multiprocessing pool, or is replayed from the
on-disk cache.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cellular.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.core.params import ABCParams
from repro.experiments.runner import run_cellular_sweep, sweep_averages
from repro.runtime import (ResultCache, SweepExecutor, SweepJob, SweepSpec,
                           stable_hash)


def _tiny_traces():
    config = SyntheticTraceConfig(mean_rate_bps=10e6, min_rate_bps=2e6,
                                  max_rate_bps=20e6, volatility=0.2,
                                  outage_rate_per_s=0.0, name="exec-test")
    return {
        "t1": synthetic_trace(config, duration=3.0, seed=5),
        "t2": synthetic_trace(config, duration=3.0, seed=6),
    }


def _metrics(result) -> tuple:
    return (result.scheme, result.trace, result.throughput_bps,
            result.utilization, result.delay_p95_ms, result.delay_mean_ms,
            result.queuing_p95_ms, result.queuing_mean_ms, result.drops)


def _sweep(traces, executor):
    return run_cellular_sweep(["abc", "cubic"], traces, duration=3.0,
                              executor=executor)


# Module-level so jobs survive pickling into pool workers.
def _echo_job(value: int, delay: float = 0.0) -> int:
    if delay:
        time.sleep(delay)
    return value


# ---------------------------------------------------------------- equivalence
def test_serial_parallel_cached_equivalence(tmp_path):
    """Same sweep -> identical metrics across all three backends."""
    traces = _tiny_traces()
    serial = _sweep(traces, SweepExecutor(jobs=1))
    parallel = _sweep(traces, SweepExecutor(jobs=2))

    cached_executor = SweepExecutor(jobs=2, cache_dir=tmp_path / "cache")
    _sweep(traces, cached_executor)             # populate
    assert cached_executor.last_stats.executed == 4
    replay = _sweep(traces, cached_executor)    # replay
    assert cached_executor.last_stats.executed == 0
    assert cached_executor.last_stats.cache_hits == 4

    for scheme in ("abc", "cubic"):
        for trace in ("t1", "t2"):
            expected = _metrics(serial[scheme][trace])
            assert _metrics(parallel[scheme][trace]) == expected
            assert _metrics(replay[scheme][trace]) == expected


def test_parallel_results_preserve_submission_order():
    jobs = [SweepJob(func=_echo_job,
                     kwargs=dict(value=i, delay=0.05 if i == 0 else 0.0))
            for i in range(4)]
    assert SweepExecutor(jobs=2).run(jobs) == [0, 1, 2, 3]


# ---------------------------------------------------------------- cache
def test_cache_hit_miss_and_invalidation(tmp_path):
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
    jobs = [SweepJob(func=_echo_job, kwargs=dict(value=7))]

    assert executor.run(jobs) == [7]
    assert executor.last_stats.executed == 1
    assert executor.last_stats.cache_hits == 0

    assert executor.run(jobs) == [7]
    assert executor.last_stats.executed == 0
    assert executor.last_stats.cache_hits == 1

    key = jobs[0].cache_key(executor.salt)
    assert executor.cache.contains(key)
    executor.cache._path(key).unlink()
    assert not executor.cache.contains(key)
    assert executor.run(jobs) == [7]
    assert executor.last_stats.executed == 1

    # Different kwargs -> different key -> miss.
    other = [SweepJob(func=_echo_job, kwargs=dict(value=8))]
    assert executor.run(other) == [8]
    assert executor.last_stats.executed == 1


def test_cache_salt_invalidates(tmp_path):
    warm = SweepExecutor(jobs=1, cache_dir=tmp_path, salt="v1")
    jobs = [SweepJob(func=_echo_job, kwargs=dict(value=1))]
    warm.run(jobs)
    warm.run(jobs)
    assert warm.last_stats.cache_hits == 1

    bumped = SweepExecutor(jobs=1, cache_dir=tmp_path, salt="v2")
    bumped.run(jobs)
    assert bumped.last_stats.cache_hits == 0
    assert bumped.last_stats.executed == 1


def test_cache_clear_and_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("ab" + "0" * 62, {"x": 1.5})
    hit, value = cache.get("ab" + "0" * 62)
    assert hit and value == {"x": 1.5}
    assert len(cache) == 1

    # A torn/corrupt entry reads as a miss and is removed.
    path = cache._path("ab" + "0" * 62)
    path.write_bytes(b"not a pickle")
    hit, _ = cache.get("ab" + "0" * 62)
    assert not hit
    assert not path.exists()

    cache.put("cd" + "1" * 62, [1, 2])
    assert cache.clear() == 1
    assert len(cache) == 0


def test_stable_hash_is_content_addressed():
    traces = _tiny_traces()
    same = synthetic_trace(
        SyntheticTraceConfig(mean_rate_bps=10e6, min_rate_bps=2e6,
                             max_rate_bps=20e6, volatility=0.2,
                             outage_rate_per_s=0.0, name="exec-test"),
        duration=3.0, seed=5)
    assert stable_hash(traces["t1"]) == stable_hash(same)
    assert stable_hash(traces["t1"]) != stable_hash(traces["t2"])
    assert stable_hash(ABCParams()) == stable_hash(ABCParams())
    assert stable_hash(ABCParams()) != stable_hash(
        ABCParams().with_overrides(delta=0.123))
    assert stable_hash(np.arange(4)) == stable_hash(np.arange(4))
    assert stable_hash(np.arange(4)) != stable_hash(np.arange(5))
    assert stable_hash({"a": 1, "b": 2.0}) == stable_hash({"b": 2.0, "a": 1})
    # numpy scalars that are not Python numbers hash as their Python value.
    assert stable_hash(np.int64(3)) == stable_hash(3)
    assert stable_hash(np.float32(0.5)) == stable_hash(0.5)
    assert stable_hash(np.bool_(True)) == stable_hash(True)
    # np.float64 is a float, so it is keyed by its repr, which numpy 2
    # spells "np.float64(0.5)"; pinned so no cache key moves silently.
    assert stable_hash(np.float64(0.5)) == (
        "5acc7245ad321fe06a0a6349bf2681283f31010eeea9bdb5f883ce17a2972b27")
    assert stable_hash(np.arange(4, dtype=np.int64)) == (
        "302efb4fef24acd2833b6dbff94e45dc8fb13cb3b0a8775c0e9154750fbf734c")


# ------------------------------------------------------------ import surface
def _fresh_python(code: str) -> str:
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_runtime_imports_without_numpy_or_the_simulator():
    """Executor, cache and journal start without numpy or any scheme."""
    loaded = _fresh_python("""
        import sys
        import repro.runtime
        print(" ".join(sys.modules))
    """).split()
    assert "numpy" not in loaded
    assert not [name for name in loaded if name.startswith(
        ("repro.simulator", "repro.cc", "repro.cellular"))]


def test_every_module_imports_first_in_a_fresh_interpreter():
    """No import cycle hides behind a package ``__init__``'s import order."""
    _fresh_python("""
        import importlib, pkgutil, sys
        import repro
        names = [info.name for info in
                 pkgutil.walk_packages(repro.__path__, "repro.")]
        assert len(names) > 50, names
        for name in names:
            for key in [k for k in sys.modules
                        if k == "repro" or k.startswith("repro.")]:
                del sys.modules[key]
            importlib.import_module(name)
    """)


# ---------------------------------------------------------------- REPRO_JOBS
def test_repro_jobs_env_fallback(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert SweepExecutor().workers == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert SweepExecutor().workers == 4
    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert SweepExecutor().workers == (os.cpu_count() or 1)
    monkeypatch.delenv("REPRO_JOBS")
    assert SweepExecutor().workers == 1
    monkeypatch.setenv("REPRO_JOBS", "banana")
    with pytest.raises(ValueError):
        SweepExecutor()


def test_explicit_jobs_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "8")
    assert SweepExecutor(jobs=2).workers == 2
    assert SweepExecutor(jobs=0).workers == (os.cpu_count() or 1)
    with pytest.raises(ValueError):
        SweepExecutor(jobs=-1)


def test_repro_jobs_1_runs_in_process(monkeypatch):
    """Serial fallback executes jobs in this very process."""
    monkeypatch.setenv("REPRO_JOBS", "1")
    observed = []
    jobs = [SweepJob(func=_echo_job, kwargs=dict(value=3))]
    executor = SweepExecutor()
    # Local (unpicklable-by-reference) callables only work in-process.
    jobs.append(SweepJob(func=lambda: observed.append(os.getpid()) or 9,
                         kwargs={}))
    assert executor.run(jobs) == [3, 9]
    assert observed == [os.getpid()]


# ---------------------------------------------------------------- validation
def test_run_cellular_sweep_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme label"):
        run_cellular_sweep(["abc", "not-a-scheme"], _tiny_traces(),
                           duration=1.0)


def test_run_cellular_sweep_rejects_empty_axes():
    with pytest.raises(ValueError, match="non-empty trace set"):
        run_cellular_sweep(["abc"], {}, duration=1.0)
    with pytest.raises(ValueError, match="at least one scheme"):
        run_cellular_sweep([], _tiny_traces(), duration=1.0)


def test_sweep_averages_rejects_empty_inputs():
    with pytest.raises(ValueError, match="non-empty results"):
        sweep_averages({})
    with pytest.raises(ValueError, match="empty trace set"):
        sweep_averages({"abc": {}})


# ---------------------------------------------------------------- SweepSpec
def test_sweep_spec_expands_scheme_trace_seed_order():
    traces = _tiny_traces()
    spec = SweepSpec(schemes=["abc", "cubic"], traces=traces, seeds=(0, 1),
                     duration=3.0, rtt=0.05)
    cells, jobs = spec.expand()
    assert [(c.scheme, c.trace, c.seed) for c in cells] == [
        (scheme, trace, seed) for scheme in ("abc", "cubic")
        for trace in ("t1", "t2") for seed in (0, 1)]
    assert [job.kwargs["seed"] for job in jobs] == [0, 1] * 4
    assert {job.kwargs["rtt"] for job in jobs} == {0.05}
    # One seed's jobs are that seed's slice of the grid, same cache keys.
    assert ([job.cache_key("s") for job in spec.jobs_for_seed(1)]
            == [job.cache_key("s") for job in jobs[1::2]])


def test_mixed_case_labels_keep_caller_keys_and_share_cache(tmp_path):
    """Results stay keyed by the caller's spelling; the cache key does not
    depend on label case (the cell normalises before hashing)."""
    traces = {"t1": _tiny_traces()["t1"]}
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
    upper = run_cellular_sweep(["ABC"], traces, duration=3.0,
                               executor=executor)
    assert set(upper) == {"ABC"}
    assert executor.last_stats.executed == 1

    lower = run_cellular_sweep(["abc"], traces, duration=3.0,
                               executor=executor)
    assert set(lower) == {"abc"}
    assert executor.last_stats.executed == 0
    assert executor.last_stats.cache_hits == 1
    assert _metrics(lower["abc"]["t1"]) == _metrics(upper["ABC"]["t1"])


def test_sweep_spec_results_are_picklable():
    """Cells strip live simulator objects so results cross process/cache."""
    import pickle

    traces = _tiny_traces()
    results = run_cellular_sweep(["abc"], {"t1": traces["t1"]}, duration=3.0,
                                 executor=SweepExecutor(jobs=1))
    result = results["abc"]["t1"]
    assert dataclasses.is_dataclass(result)
    assert set(result.extra) <= {"per_link_utilization"}
    pickle.loads(pickle.dumps(result))


# ---------------------------------------------------------------- duplicates
def test_sweep_spec_rejects_duplicate_cells():
    """A repeated axis entry must fail expansion, not silently run twice."""
    traces = {"t1": _tiny_traces()["t1"]}

    with pytest.raises(ValueError, match="duplicate sweep cell"):
        SweepSpec(schemes=["abc", "abc"], traces=traces,
                  duration=3.0).expand()

    # Case-insensitive: "ABC" and "abc" are the same cell (they share a
    # cache key), so listing both is a duplicate too.
    with pytest.raises(ValueError, match="duplicate sweep cell"):
        SweepSpec(schemes=["ABC", "abc"], traces=traces,
                  duration=3.0).expand()

    with pytest.raises(ValueError, match="duplicate sweep cell"):
        SweepSpec(schemes=["abc"], traces=traces, seeds=(1, 2, 1),
                  duration=3.0).expand()


def test_sweep_spec_distinct_cells_still_expand():
    """The duplicate check never rejects a genuinely distinct grid."""
    traces = _tiny_traces()
    cells, jobs = SweepSpec(schemes=["abc", "cubic"], traces=traces,
                            seeds=(0, 1), duration=3.0).expand()
    assert len(cells) == len(jobs) == 2 * 2 * 2


# ---------------------------------------------------------------- corruption
def test_cache_truncated_entry_is_miss_and_rewritten(tmp_path):
    """A truncated pickle reads as a miss, is deleted, and the recomputed
    value is rewritten in its place (the full sweep-recovery path)."""
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
    jobs = [SweepJob(func=_echo_job, kwargs=dict(value=11))]
    assert executor.run(jobs) == [11]
    key = jobs[0].cache_key(executor.salt)
    path = executor.cache._path(key)

    # Truncate the valid pickle mid-stream.
    complete = path.read_bytes()
    assert len(complete) > 4
    path.write_bytes(complete[: len(complete) // 2])

    assert executor.run(jobs) == [11]            # recomputed, not crashed
    assert executor.last_stats.executed == 1
    assert executor.last_stats.cache_hits == 0
    assert path.read_bytes() == complete          # rewritten intact

    assert executor.run(jobs) == [11]            # and now it hits again
    assert executor.last_stats.cache_hits == 1


@pytest.mark.parametrize("garbage", [b"", b"\x80", b"\x80\x04garbage.",
                                     b"(not(a(pickle"])
def test_cache_garbage_entries_are_misses(tmp_path, garbage):
    cache = ResultCache(tmp_path)
    key = "ef" + "2" * 62
    cache.put(key, {"ok": True})
    cache._path(key).write_bytes(garbage)
    hit, value = cache.get(key)
    assert not hit and value is None
    assert not cache._path(key).exists()
    # The slot is reusable after the corrupt entry was dropped.
    cache.put(key, {"ok": True})
    hit, value = cache.get(key)
    assert hit and value == {"ok": True}


# ------------------------------------------------------------ size cap
def _blob_job(value: int, kilobytes: int = 600) -> bytes:
    """A job whose cached pickle is ~``kilobytes`` KB (deterministic)."""
    return bytes([value % 256]) * (kilobytes * 1024)


def test_cache_size_cap_evicts_oldest_entries(tmp_path):
    # Cap ~1.25 MB with ~600 KB entries; the sweep interval floors at 1 MB,
    # so the first put sweeps immediately and the third put (>= 1 MB written
    # since) sweeps again and must evict the oldest entry.
    cache = ResultCache(tmp_path, max_mb=1.25)
    keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
    cache.put(keys[0], _blob_job(0))
    os.utime(cache._path(keys[0]), (1000.0, 1000.0))   # force mtime order
    cache.put(keys[1], _blob_job(1))
    os.utime(cache._path(keys[1]), (2000.0, 2000.0))
    assert cache.evictions == 0 and len(cache) == 2
    cache.put(keys[2], _blob_job(2))                   # newest mtime wins
    assert cache.evictions == 1
    assert not cache.contains(keys[0]), "mtime-LRU must drop the oldest"
    assert cache.contains(keys[1]) and cache.contains(keys[2])


def test_cache_cap_env_knob(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1.25")
    assert ResultCache(tmp_path)._max_bytes == int(1.25 * 1024 * 1024)
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0")
    assert ResultCache(tmp_path)._max_bytes is None
    monkeypatch.delenv("REPRO_CACHE_MAX_MB")
    assert ResultCache(tmp_path)._max_bytes is None
    # Explicit argument beats the environment.
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "64")
    assert ResultCache(tmp_path, max_mb=2)._max_bytes == 2 * 1024 * 1024


def test_executor_reports_cache_evictions(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "1")
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
    jobs = [SweepJob(func=_blob_job, kwargs=dict(value=i)) for i in range(4)]
    results = executor.run(jobs)
    assert results == [_blob_job(i) for i in range(4)]
    assert executor.last_stats.cache_evictions > 0
    assert executor.cache.evictions == executor.last_stats.cache_evictions
    # An uncapped executor never evicts.
    monkeypatch.delenv("REPRO_CACHE_MAX_MB")
    unbounded = SweepExecutor(jobs=1, cache_dir=tmp_path / "u")
    unbounded.run(jobs)
    assert unbounded.last_stats.cache_evictions == 0


def test_manifest_records_cache_evictions(tmp_path, monkeypatch):
    from repro.obs.manifest import executor_record
    # 200 KB entries under a 0.5 MB cap: the fourth write sweeps and evicts
    # the two oldest entries.
    monkeypatch.setenv("REPRO_CACHE_MAX_MB", "0.5")
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
    executor.run([SweepJob(func=_blob_job, kwargs=dict(value=i, kilobytes=200))
                  for i in range(4)])
    assert executor_record(executor)["cache_evictions"] == 2
    assert executor.last_stats.cache_evictions == 2
