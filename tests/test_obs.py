"""Observability subsystem: registry, harvest, merge-back, manifests, traces.

Pins the contracts ``src/repro/obs`` is built on:

* nothing holds an instrument handle: counts are published once per run,
  under whatever ``enabled()`` says at that moment;
* the registry holds simulation counters only — the executor's numbers live
  in ``last_stats``, once;
* counters merge exactly and order-independently, so serial and parallel
  sweeps produce identical merged totals;
* simulation results are bit-identical with telemetry on and off (and with
  the engine trace hook attached);
* run manifests round-trip through JSON with the documented schema, and the
  provenance record embedded in fuzz reports is deterministic;
* the executor counts corrupt cache entries distinctly from ordinary misses.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments.runner import run_cellular_sweep
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.manifest import MANIFEST_SCHEMA, provenance
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import SweepProgress
from repro.obs.trace import (EventTraceRecorder, sweep_trace_events,
                             write_chrome_trace)
from repro.runtime.executor import SweepExecutor
from repro.runtime.spec import SweepJob
from repro.simulator.engine import EventLoop

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts and ends with an empty process registry."""
    obs_metrics.registry().reset()
    yield
    obs_metrics.registry().reset()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
def test_enabled_handles_record():
    registry = obs_metrics.registry()
    registry.counter("a").inc()
    registry.counter("a").inc(2)
    assert registry.snapshot() == {"counters": {"a": 3}}


def test_env_knob(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    assert obs_metrics.enabled()
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    assert not obs_metrics.enabled()


def test_registry_merge_is_order_independent():
    snap_a = {"counters": {"c": 3}}
    snap_b = {"counters": {"c": 4, "d": 1}}
    ab, ba = MetricsRegistry(), MetricsRegistry()
    ab.merge(snap_a), ab.merge(snap_b)
    ba.merge(snap_b), ba.merge(snap_a)
    assert ab.snapshot() == ba.snapshot()
    assert ab.snapshot()["counters"] == {"c": 7, "d": 1}


# ---------------------------------------------------------------------------
# Scenario harvest
# ---------------------------------------------------------------------------
def _run_fig_cell(scheme="abc"):
    """One single-bottleneck cell run in this process: its summary and the
    built scenario the summary ran."""
    from repro.experiments.runner import (single_bottleneck_spec,
                                          single_bottleneck_summary)
    from repro.experiments.scenario_spec import build
    built = build(single_bottleneck_spec(scheme, 12e6, rtt=0.05, duration=2.0,
                                         buffer_packets=100))
    return single_bottleneck_summary(built), built


def test_harvest_publishes_component_counters(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    _, built = _run_fig_cell()
    scenario = built.scenario
    counters = obs_metrics.registry().snapshot()["counters"]
    assert counters["scenario.runs"] == 1
    assert counters["engine.events_dispatched"] == scenario.env.events_processed
    link = scenario.links[0]
    assert counters["link.delivered_packets"] == link.delivered_packets
    sender = scenario.flows[0].sender
    assert counters["sender.acks_received"] == sender.acks_received
    assert counters["sender.rto_rearms"] == sender.rto_rearms
    assert counters["sender.packets_sent"] == sender.packets_sent
    assert sender.rto_rearms > 0  # ACK-clocked: re-armed throughout the run
    assert counters["sender.pace_ticks"] == 0  # no pacing loop to tick


def test_harvest_publishes_pacing_counters(monkeypatch):
    """The pacing-loop counters ride the same end-of-run harvest."""
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    _, built = _run_fig_cell(scheme="bbr")
    sender = built.flows[0].sender
    counters = obs_metrics.registry().snapshot()["counters"]
    assert counters["sender.pace_ticks"] == sender.pace_ticks > 0
    assert counters["sender.pace_halts"] == sender.pace_halts


def test_results_bit_identical_with_and_without_telemetry(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "0")
    off, _ = _run_fig_cell()
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    on, _ = _run_fig_cell()
    assert off.throughput_bps == on.throughput_bps
    assert off.utilization == on.utilization
    assert off.delay_p95_ms == on.delay_p95_ms
    assert off.drops == on.drops


# ---------------------------------------------------------------------------
# Executor: merge-back determinism, job records, corrupt-entry accounting
# ---------------------------------------------------------------------------
def _small_sweep(executor):
    """abc and cubic on a 12 Mbit/s link at seeds 0 and 1: four cells,
    returned as their per-seed results."""
    sweep = run_cellular_sweep(["abc", "cubic"], {"12mbps": 12e6},
                               duration=1.0, seeds=(0, 1), executor=executor)
    return [result for per_trace in sweep.values()
            for cell in per_trace.values() for result in cell.per_seed]


def _one_cell(executor, duration=1.0, seeds=None):
    return run_cellular_sweep(["abc"], {"12mbps": 12e6}, duration=duration,
                              seeds=seeds, executor=executor)


def test_worker_merge_back_matches_serial(tmp_path, monkeypatch):
    def counters_of(jobs, cache_dir):
        """Cold run then cached replay; the executor (and its cache) is
        built with telemetry *off* — only the runs happen under it."""
        monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
        executor = SweepExecutor(jobs=jobs, cache_dir=cache_dir)
        monkeypatch.setenv("REPRO_TELEMETRY", "1")
        obs_metrics.registry().reset()
        cells = _small_sweep(executor)
        assert executor.last_stats.executed == 4        # the cold run
        assert _small_sweep(executor) == cells
        assert executor.last_stats.cache_hits == 4      # the replay
        return cells, obs_metrics.registry().snapshot()["counters"]

    serial, serial_counters = counters_of(1, tmp_path / "serial")
    parallel, parallel_counters = counters_of(2, tmp_path / "parallel")

    assert serial_counters == parallel_counters
    assert serial_counters["scenario.runs"] == 4
    for res_s, res_p in zip(serial, parallel):
        assert res_s.scheme == res_p.scheme
        assert res_s.throughput_bps == res_p.throughput_bps


def test_observed_run_collects_job_records(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    executor = SweepExecutor(jobs=2)
    _small_sweep(executor)
    stats = executor.last_stats
    assert stats.executed == 4
    assert len(stats.job_records) == 4
    for record in stats.job_records:
        assert record["wall_seconds"] > 0
        assert record["queue_wait_seconds"] >= 0
        assert record["pid"] > 0
        assert record["label"]
        assert record["attempt"] == 1
        assert record["outcome"] == "ok"


def test_the_registry_holds_simulation_counters_only(monkeypatch):
    """A telemetry-on parallel sweep leaves no executor or cache copy of
    ``last_stats`` in the registry: every counter is a harvested one."""
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    _one_cell(SweepExecutor(jobs=2), duration=0.5, seeds=(0, 1))
    names = obs_metrics.registry().snapshot()["counters"]
    assert names
    assert {name.partition(".")[0] for name in names} <= {
        "scenario", "engine", "link", "sender", "receiver"}


def test_unobserved_run_collects_nothing(monkeypatch):
    monkeypatch.delenv("REPRO_TELEMETRY", raising=False)
    monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    executor = SweepExecutor(jobs=1)
    _one_cell(executor)
    stats = executor.last_stats
    assert len(stats.job_records) == stats.executed
    assert obs_metrics.registry().snapshot()["counters"] == {}


def _double(x: int) -> int:
    return 2 * x


def test_executor_counts_corrupt_entries_distinctly(tmp_path):
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
    jobs = [SweepJob(func=_double, kwargs={"x": 21}, label="j")]
    assert executor.run(jobs) == [42]
    assert executor.last_stats.cache_corrupt == 0
    (pkl,) = tmp_path.glob("*/*.pkl")
    pkl.write_bytes(b"not a pickle")
    assert executor.run(jobs) == [42]
    stats = executor.last_stats
    assert stats.cache_corrupt == 1
    assert stats.cache_hits == 0
    assert stats.executed == 1
    assert executor.cache.corrupt == 1
    # The corrupt entry was deleted and rewritten: next run hits cleanly.
    assert executor.run(jobs) == [42]
    assert executor.last_stats.cache_hits == 1
    assert executor.last_stats.cache_corrupt == 0


# ---------------------------------------------------------------------------
# Progress
# ---------------------------------------------------------------------------
def test_progress_counts_and_eta():
    started = time.perf_counter()
    first = SweepProgress.of(3, 1, 0, started)
    assert first.done == 1 and first.eta_seconds is None
    last = SweepProgress.of(3, 1, 2, started, "b")
    assert last.done == 3 and last.total == 3
    assert last.executed == 2 and last.cache_hits == 1
    assert last.eta_seconds == pytest.approx(0.0, abs=1.0)
    assert last.cache_hit_rate == pytest.approx(1 / 3)
    assert last.label == "b"


def test_executor_progress_callback():
    seen = []
    _one_cell(SweepExecutor(jobs=1, progress=seen.append))
    assert seen[-1].done == seen[-1].total == 1


def _double_or_fail(x: int) -> int:
    if x < 0:
        raise ValueError("negative cell")
    return 2 * x


def test_progress_reports_once_up_front_then_once_per_landed_cell(tmp_path):
    """N cells with k served from the cache: N - k + 1 callbacks, failed
    cells included."""
    jobs = [SweepJob(func=_double_or_fail, kwargs={"x": x}, label=f"c{x}")
            for x in (0, 1, 2, -3, 4)]
    SweepExecutor(jobs=1, cache_dir=tmp_path).run(jobs[:2])
    seen = []
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path, progress=seen.append,
                             retries=0, failure_policy="salvage")
    executor.run(jobs)
    assert len(seen) == len(jobs) - 2 + 1
    assert [(p.done, p.executed, p.cache_hits, p.label) for p in seen] == [
        (2, 0, 2, ""), (3, 1, 2, "c2"), (4, 2, 2, "c-3"), (5, 3, 2, "c4")]
    assert executor.last_stats.failed_jobs == 1


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------
def test_provenance_is_deterministic_and_timestamp_free():
    first, second = provenance(), provenance()
    assert first == second
    assert first["schema"] == MANIFEST_SCHEMA
    assert "created_unix" not in first
    assert first["code_version_salt"].startswith("repro-runtime")
    assert isinstance(first["knobs"], dict)


def test_sweep_manifest_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    _small_sweep(SweepExecutor(jobs=1))
    (path,) = (tmp_path / "runs").glob("*.json")
    manifest = json.loads(path.read_text())
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["kind"] == "figure"
    assert manifest["created_unix"] > 0
    assert manifest["knobs"]["REPRO_TELEMETRY"] == "1"
    cells = manifest["spec"].pop("cells")
    assert manifest["spec"] == {"seeds": [0, 1], "jobs": [
        "seed0/abc/12mbps", "seed0/cubic/12mbps",
        "seed1/abc/12mbps", "seed1/cubic/12mbps"]}
    # Each cell's spec and summary: enough to replay it (test_summaries.py).
    assert [(cell["summary"], cell["spec"]["scheme"], cell["spec"]["sim_seed"])
            for cell in cells] == [("single_bottleneck", "abc", 0),
                                   ("single_bottleneck", "cubic", 0),
                                   ("single_bottleneck", "abc", 1),
                                   ("single_bottleneck", "cubic", 1)]
    assert manifest["executor"]["total"] == 4
    assert manifest["executor"]["executed"] == 4
    assert manifest["executor"]["cache_corrupt"] == 0
    assert len(manifest["executor"]["jobs"]) == 4
    assert manifest["metrics"]["counters"]["scenario.runs"] == 4


def test_every_seeded_figure_call_leaves_one_manifest(tmp_path, monkeypatch):
    from repro.experiments.figures import FIGURES, run_figure
    from repro.experiments.runner import run_seed_grid
    from repro.metro.spec import metro_pack
    from tests.conftest import shrunk
    monkeypatch.delenv("REPRO_SEEDS", raising=False)
    runs = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUN_DIR", str(runs))

    def only_manifest() -> dict:
        (path,) = runs.glob("*.json")
        assert path.name.startswith("figure-")
        manifest = json.loads(path.read_text())
        assert manifest["kind"] == "figure"
        assert manifest["executor"]["total"] == len(manifest["spec"]["jobs"])
        path.unlink()
        return manifest

    monkeypatch.setenv("REPRO_SEEDS", "1,2")
    run_figure(shrunk(FIGURES["fig09"], duration=1.0,
                      keys=[("abc", "Verizon-LTE-1")]),
               SweepExecutor(jobs=1))
    manifest = only_manifest()
    assert manifest["spec"]["seeds"] == [1, 2]
    assert manifest["spec"]["jobs"] == ["seed1/abc/Verizon-LTE-1",
                                        "seed2/abc/Verizon-LTE-1"]
    assert manifest["executor"]["config"]["jobs"] == 1
    monkeypatch.delenv("REPRO_SEEDS")
    run_figure(shrunk(FIGURES["fig13"], duration=1.0), SweepExecutor(jobs=1))
    spec = only_manifest()["spec"]
    assert (spec["seeds"], spec["jobs"]) == ([23], ["fig13/seed23"])
    assert [cell["summary"] for cell in spec["cells"]] == ["app_limited"]
    # A grid with a pinned seed list ignores REPRO_SEEDS.
    _one_cell(SweepExecutor(jobs=1), seeds=[0, 1])
    assert only_manifest()["spec"]["seeds"] == [0, 1]
    monkeypatch.setenv("REPRO_SEEDS", "5,6")
    city = metro_pack(2, duration=1.0)
    run_seed_grid(city.jobs_for_seed, 0, city.seeds, SweepExecutor(jobs=1))
    spec = only_manifest()["spec"]
    assert (spec["seeds"], spec["jobs"]) == ([0], [
        f"{city.schemes[0]}/cell-00{i}/seed0" for i in range(2)])
    assert [cell["summary"] for cell in spec["cells"]] == ["metro"] * 2
    run_figure(shrunk(FIGURES["fig06"], duration=1.0), SweepExecutor(jobs=1))
    spec = only_manifest()["spec"]
    assert (spec["seeds"], spec["jobs"]) == ([0], ["fig6"])
    assert [cell["summary"] for cell in spec["cells"]] == ["fig6"]


def test_no_manifest_without_run_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
    from repro.obs.manifest import write_manifest
    assert write_manifest({"kind": "x"}) is None


def test_fuzz_report_embeds_deterministic_manifest():
    from repro.fuzz.campaign import run_campaign
    report = run_campaign(budget=2, seed=3,
                          executor=SweepExecutor(jobs=1), shrink=False,
                          check_determinism=False)
    replay = run_campaign(budget=2, seed=3,
                          executor=SweepExecutor(jobs=1), shrink=False,
                          check_determinism=False)
    assert report == replay
    assert report["format"] == 3
    assert report["manifest"]["schema"] == MANIFEST_SCHEMA


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------
def test_event_trace_recorder_records_every_dispatch(tmp_path):
    loop = EventLoop()
    fired = []
    for i in range(5):
        loop.post(0.1 * (i + 1), fired.append, i)
    recorder = EventTraceRecorder(loop)
    loop.run(until=1.0)
    assert len(recorder.records) == 5
    assert fired == [0, 1, 2, 3, 4]
    sim_times = [r[0] for r in recorder.records]
    assert sim_times == sorted(sim_times)
    path = recorder.write_chrome(tmp_path / "trace.json")
    payload = json.loads(path.read_text())
    events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 5
    for event in events:
        assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        assert event["dur"] > 0


def test_traced_run_is_bit_identical_to_untraced():
    untraced, untraced_built = _run_fig_cell()
    from repro.experiments.scenario_spec import (FlowSpec, ScenarioSpec,
                                                 build, link_spec_from)
    # Tracing the same cell through the hook must not change results.
    built = build(ScenarioSpec(
        scheme="abc", duration=2.0, flows=[FlowSpec(rtt=0.05, label="abc")],
        links=[link_spec_from(12e6, buffer_packets=100, name="bottleneck")]))
    scenario, flow = built.scenario, built.flows[0]
    recorder = EventTraceRecorder(scenario.env)
    result = scenario.run(2.0)
    recorder.detach()
    traced_scenario = untraced_built.scenario
    assert scenario.env.events_processed == traced_scenario.env.events_processed
    assert (result.flow_throughput_bps(flow)
            == untraced.throughput_bps)
    assert len(recorder.records) == scenario.env.events_processed


def test_recorder_detach_and_cap(monkeypatch):
    monkeypatch.setattr(obs_trace, "MAX_EVENTS", 4)
    loop = EventLoop()
    for i in range(10):
        loop.post(0.1 * (i + 1), lambda: None)
    recorder = EventTraceRecorder(loop)
    loop.run(until=0.65)
    assert len(recorder.records) == 4
    assert recorder.dropped == 2
    recorder.detach()
    loop.run(until=2.0)
    assert len(recorder.records) == 4  # nothing recorded after detach
    assert recorder.dropped == 2


def test_sweep_trace_events_one_row_per_worker(tmp_path):
    records = [
        {"label": "a", "pid": 100, "start_unix": 10.0, "wall_seconds": 0.5,
         "queue_wait_seconds": 0.0},
        {"label": "b", "pid": 200, "start_unix": 10.1, "wall_seconds": 0.4,
         "queue_wait_seconds": 0.1},
        {"label": "c", "pid": 100, "start_unix": 10.6, "wall_seconds": 0.3,
         "queue_wait_seconds": 0.0},
    ]
    events = sweep_trace_events(records)
    bars = [e for e in events if e["ph"] == "X"]
    names = [e for e in events if e["ph"] == "M"]
    assert len(bars) == 3
    assert {b["tid"] for b in bars} == {1, 2}
    assert bars[0]["ts"] == 0.0  # re-based to earliest start
    assert len(names) == 2
    path = write_chrome_trace(tmp_path / "w.json", events)
    assert json.loads(path.read_text())["traceEvents"]
    assert sweep_trace_events([]) == []


# ---------------------------------------------------------------------------
# CLI tools
# ---------------------------------------------------------------------------
def _run_tool(script, *args, env_extra=None):
    import os
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / script), *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120)


def test_export_trace_tool_scenario_mode(tmp_path):
    out = tmp_path / "sim.json"
    proc = _run_tool("export_trace.py", "--scheme", "abc",
                     "--duration", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["traceEvents"]
    assert any(e["ph"] == "X" for e in payload["traceEvents"])
    # The queue-depth track: one sample per 50 ms probe call, 0 … 0.95 s
    # (the float sum 0.95 + 0.05 lands just past 1.0).
    queue = [e for e in payload["traceEvents"]
             if e["ph"] == "C" and e["name"] == "queue:bottleneck"]
    assert len(queue) == 20
    assert all(e["args"]["packets"] >= 0 for e in queue)
    # The ABC router's tracks ride the same samples.
    fraction = [e["args"]["fraction"] for e in payload["traceEvents"]
                if e["ph"] == "C" and e["name"] == "fraction:bottleneck"]
    assert len(fraction) == 20 and all(0.0 <= f <= 1.0 for f in fraction)
    assert sum(e["name"] == "target_rate:bottleneck"
               for e in payload["traceEvents"]) == 20


def test_export_trace_tool_manifest_mode(tmp_path, monkeypatch):
    run_dir = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUN_DIR", str(run_dir))
    _one_cell(SweepExecutor(jobs=1))
    (manifest,) = run_dir.glob("figure-*.json")
    out = tmp_path / "workers.json"
    proc = _run_tool("export_trace.py", "--manifest", str(manifest),
                     "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


def test_profile_tool_json_output(tmp_path):
    out = tmp_path / "profile.json"
    proc = _run_tool("profile_hotpath.py", "--scheme", "abc",
                     "--duration", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["kind"] == "profile"
    assert payload["rows"]
    row = payload["rows"][0]
    assert set(row) >= {"function", "file", "line", "tottime", "cumtime"}


def test_profile_tool_metro_city(tmp_path):
    out = tmp_path / "metro.json"
    proc = _run_tool("profile_hotpath.py", "--metro", "abc:0.6,cubic:0.4",
                     "--duration", "0.5", "--top", "400", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["title"].startswith("metro city abc:0.6,cubic:0.4")
    # A city goes through the shared ABC router and the per-cell job body.
    profiled = {row["function"] for row in payload["rows"]}
    assert {"spec_cell", "dequeue"} <= profiled


@pytest.mark.parametrize("target", [("--scheme", "cubic"),
                                    ("--metro", "abc:0.6,cubic:0.4")])
def test_profile_tool_counts_mode(tmp_path, target):
    out = tmp_path / "counts.json"
    proc = _run_tool("profile_hotpath.py", *target, "--duration", "0.3",
                     "--counts", "--top", "400", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "bytecodes/op" in proc.stdout
    payload = json.loads(out.read_text())
    assert payload["kind"] == "counts" and payload["delivered_mtus"] > 50
    # ``co_qualname`` (3.11+) or the bare name.
    rows = {row["function"].rpartition(".")[2]: row for row in payload["rows"]}
    # Counted around Scenario.run only: the job body outside it is absent.
    assert "_burst" in rows and "spec_cell" not in rows
    assert 0.2 < rows["receive_at"]["py_calls_per_op"] < 2.0
    assert rows["receive_at"]["bytecodes_per_op"] > 50
    assert payload["bytecodes_per_op"] > 30 * payload["py_calls_per_op"] > 300
    # A finished scenario is freed by refcounting: nothing left to collect.
    assert "0 cyclic garbage objects left per run" in proc.stdout
    assert payload["garbage_objects_per_run"] == 0


def test_profile_tool_setup_split():
    proc = _run_tool("profile_hotpath.py", "--setup", "--metro", "abc:1",
                     "--duration", "0.5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = lines[2:8]
    assert [row.split(maxsplit=2)[2] for row in rows] == [
        "interpreter", "numpy import", "repro import", "trace synthesis",
        "expand", "total"]
    assert rows[-1].split()[1] == "100.0%"
    assert lines[8].startswith("   first job ")
    # Modules loaded by set-up, then by set-up plus the first job (the
    # simulator, the ABC router and sender): in all, and under repro.
    setup, setup_repro, ran, ran_repro = map(int, re.findall(r"\d+", lines[9]))
    assert setup > setup_repro > 0
    assert ran - setup >= ran_repro - setup_repro > 5


def test_count_gate_fails_on_a_rise_beyond_its_tolerance():
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    from count_gate import TOLERANCE, regressions

    expected = {"total": 24.0, "bytecodes": 1000.0,
                "functions": {"a": 1.0, "b": 2.0}}
    assert regressions(expected, expected) == []
    assert regressions(expected, {"total": 24.0 * (1 + TOLERANCE),
                                  "bytecodes": 1000.0 * (1 + TOLERANCE),
                                  "functions": {"a": 0.5}}) == []
    rose = {"total": 25.0, "bytecodes": 1000.0,
            "functions": {"a": 1.0, "b": 2.1, "new": 0.01}}
    assert [line.split(":")[0] for line in regressions(expected, rose)] == [
        "total", "b", "new"]
    # Bytecodes are gated on their own: a change that adds work without a
    # call (an inlined loop) rises here alone.
    heavier = dict(expected, bytecodes=1031.0)
    assert [line.split(":")[0] for line in regressions(expected, heavier)] == [
        "bytecodes"]


def test_count_gate_reads_a_mix_shift_apart_from_a_costlier_function():
    """Calls per MTU rise both when more traffic takes one scheme's path
    and when a function starts calling more; only the second raises a
    function's calls made per call of it."""
    sys.path.insert(0, str(REPO_ROOT / "tools"))
    from count_gate import costlier, regressions

    expected = {"total": 10.0, "bytecodes": 900.0,
                "functions": {"abc_ack": 1.0, "cubic_ack": 1.0, "law": 2.0},
                "per_call": {"abc_ack": 2.0, "cubic_ack": 0.0, "law": 0.0}}
    # A third more of the packets are ABC's: its ACK and the law it calls
    # twice per ACK run more often, each call as costly as before.
    shifted = {"total": 10.5, "bytecodes": 900.0,
               "functions": {"abc_ack": 1.5, "cubic_ack": 0.5, "law": 3.0},
               "per_call": dict(expected["per_call"])}
    rose = regressions(expected, shifted)
    assert [line.split(":")[0] for line in rose] == [
        "total", "abc_ack", "law"]
    assert rose[1].endswith("2.000 -> 2.000 calls made per call")
    assert costlier(expected, shifted) == []
    # Same mix, but the ABC ACK now calls its law four times.
    dearer = {"total": 12.0, "bytecodes": 900.0,
              "functions": {"abc_ack": 1.0, "cubic_ack": 1.0, "law": 4.0},
              "per_call": dict(expected["per_call"], abc_ack=4.0)}
    assert [line.split(":")[0] for line in regressions(expected, dearer)] == [
        "total", "law"]
    assert costlier(expected, dearer) == ["abc_ack"]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="tools/hotpath_counts.json holds CPython 3.11 counts")
def test_count_gate_passes_on_this_checkout():
    """ROADMAP item 5's gate: no per-packet Python call count rose."""
    proc = _run_tool("count_gate.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_profile_tool_bare_out_lands_in_run_dir(tmp_path):
    run_dir = tmp_path / "runs"
    proc = _run_tool("profile_hotpath.py", "--scheme", "abc",
                     "--duration", "1", "--out", "profile.json",
                     env_extra={"REPRO_RUN_DIR": str(run_dir)})
    assert proc.returncode == 0, proc.stderr
    assert (run_dir / "profile.json").exists()
