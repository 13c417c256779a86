"""Self-test of the ledger harness at ``--smoke`` size (collected by tier 1).

Checks the harness, not the program's speed: every metric named in
``BENCHMARK.json`` is produced with its unit, the fold partitions the traced
wall, tracing leaves nothing behind, failures are counted and fail the run,
and counts and digests repeat exactly.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ledger import fold, report, run, workloads
from repro.runtime import SweepJob
from repro.simulator.scenario import Scenario

RUN_PY = Path(run.__file__)
BENCHMARK = report.load_benchmark()
SIMULATOR_WORKLOADS = ("metro_ack", "metro_paced", "paper_figs")


@pytest.fixture(autouse=True)
def default_configuration(monkeypatch):
    """In-process runs must see the defaults, like the CLI after its scrub."""
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)


def smoke(name, trace, tmp_path, **kwargs):
    return run.run_one(name, seed=1, seconds=0, trace=trace, smoke=True,
                       work_root=tmp_path / "work", **kwargs)


def exact_values(result):
    """The metrics that must repeat exactly: counts and simulated statistics."""
    return {name: metric["value"]
            for name, metric in result["metrics"].items()
            if metric["unit"] == "count" or name.startswith("sim.")}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_benchmark_metric_is_produced_with_its_unit(name, tmp_path):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = smoke(name, trace, tmp_path)
        expected = {spec["name"]: spec["unit"] for spec in BENCHMARK[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        if not trace:
            assert all(m["value"] > 0 for m in result["metrics"].values())
    assert not (tmp_path / "work").exists()
    if name in SIMULATOR_WORKLOADS:
        assert sum(result["partition"].values()) == pytest.approx(1.0,
                                                                  abs=0.01)
        assert result["metrics"]["other.share"]["value"] < 0.02
        assert result["metrics"]["engine.events"]["value"] > 0
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_benchmark_json_names_the_workloads():
    assert tuple(w["name"] for w in BENCHMARK["workloads"]) == \
        workloads.WORKLOADS
    assert BENCHMARK["paths"] == ["benchmarks/ledger"]


def test_tracing_leaves_no_wrapper_behind():
    from repro.aqm.codel import CoDelQdisc
    from repro.cc import make_cc

    scenario_run, job_run = Scenario.run, SweepJob.run
    scenario = Scenario()
    link = scenario.add_rate_link(8e6, qdisc=CoDelQdisc(buffer_packets=100))
    flow = scenario.add_flow(make_cc("cubic"), [link], rtt=0.05)
    layer_fold, spans = fold.LayerFold(), fold.Spans()
    with fold.traced(layer_fold, spans):
        assert Scenario.run is not scenario_run
        scenario.run(0.5)
    assert Scenario.run is scenario_run and SweepJob.run is job_run
    assert not set(vars(link.qdisc)) & set(fold.QDISC_METHODS)
    assert not set(vars(flow.cc)) & set(fold.CC_METHODS)
    assert layer_fold.nested["aqm"][1] == layer_fold.nested["qdisc"][1] > 0
    assert layer_fold.nested["cc"][1] > 0

    with pytest.raises(RuntimeError):
        with fold.traced(layer_fold, spans):
            raise RuntimeError("inside the traced block")
    assert Scenario.run is scenario_run and SweepJob.run is job_run


def _boom(**_kwargs):
    raise RuntimeError("deliberate failure")


def test_a_raising_job_is_counted_and_fails_the_run(tmp_path, capsys):
    workload = workloads.make_workload("metro_ack", 1, smoke=True)
    workload.build()
    workload.jobs[0] = SweepJob(func=_boom, label="boom")
    result = smoke("metro_ack", True, tmp_path, workload=workload)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["failed_share"]["value"] > 0
    assert run.emit(result, []) != 0
    last_line = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last_line)["failed"] == result["failed"]


def test_cli_scrubs_the_environment_and_prints_one_result_line(tmp_path):
    env = dict(os.environ, REPRO_BATCH_ACKS="1", REPRO_SCHED="wheel")
    done = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", "metro_ack", "--smoke",
         "--trace", "1", "--out", str(tmp_path / "run.json")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert ("scrubbed environment: REPRO_BATCH_ACKS, REPRO_SCHED"
            in done.stdout)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for spec in BENCHMARK["per_layer"]:
        assert f"  {spec['name']} " in done.stdout
        assert line["metrics"][spec["name"]]["unit"] == spec["unit"]
    # The knobs were scrubbed, so this is the default path: a second run of
    # the same seed, in a process that never saw them, gives the same counts
    # and digest.
    clean = smoke("metro_ack", True, tmp_path)
    written = json.loads((tmp_path / "run.json").read_text())
    assert written["digest"] == clean["digest"]
    assert exact_values(written) == exact_values(clean)
    assert written["scrubbed_env"] == ["REPRO_BATCH_ACKS", "REPRO_SCHED"]


def test_compare_verdicts():
    steady_a, steady_b = [10.0, 10.1, 10.2, 10.3], [10.4, 10.5, 10.6, 10.7]
    assert report.verdict(steady_a, steady_b, "lower", 0.10)[1] == "ok"
    assert report.verdict(steady_a, [v * 1.2 for v in steady_a], "lower",
                          0.10)[1] == "REGRESSED"
    assert report.verdict(steady_a, [v * 0.8 for v in steady_a], "higher",
                          0.10)[1] == "REGRESSED"
    noisy = [8.0, 10.0, 12.0, 14.0]
    assert report.verdict(noisy, noisy, "lower", 0.10)[1] == "unresolved"
    assert report.verdict(noisy, [1.0, 2.0, 3.0, 4.0], "lower",
                          0.10)[1] == "better"
    summary = report.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (summary["median"], summary["n"]) == (3.0, 5)
    assert summary["spread"] == pytest.approx((4.5 - 1.5) / 3.0)
