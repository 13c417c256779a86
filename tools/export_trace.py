"""Export ``chrome://tracing``-loadable timelines from simulations and sweeps.

Two sources, one output format (the Chrome trace-event JSON that
``chrome://tracing`` and Perfetto's legacy loader open directly):

* A **simulation event timeline** — runs one scheme over the LTE showcase
  trace with the engine's trace hook attached and renders every dispatched
  event: simulated time on the axis, each event's wall-clock cost as its bar
  length, one row per component class, plus one counter track per link
  column a :class:`~repro.obs.signals.SignalRecorder` samples every 50
  simulated ms: ``queue:<link>`` (backlog packets), ``capacity_bps:<link>``
  and, on an ABC router, ``fraction:<link>``, ``target_rate:<link>``,
  ``router_capacity:<link>``, ``queuing_delay:<link>``,
  ``accel_count:<link>`` and ``brake_count:<link>``::

      PYTHONPATH=src python tools/export_trace.py --scheme abc --out trace.json
      PYTHONPATH=src python tools/export_trace.py --scheme cubic --duration 5

* A **sweep worker timeline** — renders the per-job records of a run manifest
  (written by a sweep when ``REPRO_RUN_DIR`` is set; see
  :mod:`repro.obs.manifest`): one row per worker pid, one bar per cell::

      PYTHONPATH=src python tools/export_trace.py \\
          --manifest runs/figure-...json --out workers.json

A bare ``--out`` filename lands in ``REPRO_RUN_DIR`` when that is set, so
traces collect next to the manifests they belong to.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.manifest import in_run_dir  # noqa: E402

#: Track and series names of a recorded link column, where they are not
#: the column's own name.
TRACKS = {"backlog_packets": ("queue", "packets")}


def signal_counters(signals) -> list:
    """Chrome counter events (``"ph": "C"``) for every link column of a
    :class:`~repro.obs.signals.SignalRecorder`, one track per column."""
    events = []
    for link, columns in signals.links.items():
        for column, values in columns.items():
            track, series = TRACKS.get(column, (column, column))
            events += [{"name": f"{track}:{link}", "cat": "signal", "ph": "C",
                        "ts": now * 1e6, "pid": 1, "args": {series: value}}
                       for now, value in zip(signals.times, values)]
    return events


def export_scenario_trace(scheme: str, duration: float, seed: int,
                          out: Path) -> Path:
    from repro.cellular.synthetic import lte_showcase_trace
    from repro.experiments.runner import single_bottleneck_spec
    from repro.experiments.scenario_spec import build
    from repro.obs.signals import SignalRecorder
    from repro.obs.trace import EventTraceRecorder

    # The spec a single-bottleneck ``spec_cell`` job runs, built here so the
    # recorder can attach before the run.
    scenario = build(single_bottleneck_spec(
        scheme, lte_showcase_trace(duration=duration, seed=7), rtt=0.1,
        duration=duration, seed=seed)).scenario
    recorder = EventTraceRecorder(scenario.env)
    signals = SignalRecorder(scenario, 0.05)
    scenario.run(duration)
    recorder.detach()
    recorder.counters.extend(signal_counters(signals))
    path = recorder.write_chrome(out)
    print(f"wrote {path}: {len(recorder.records)} events "
          f"({recorder.dropped} dropped)")
    return path


def export_manifest_trace(manifest_path: Path, out: Path) -> Path:
    from repro.obs.trace import sweep_trace_events, write_chrome_trace

    manifest = json.loads(manifest_path.read_text())
    jobs = manifest.get("executor", {}).get("jobs", [])
    if not jobs:
        raise SystemExit(
            f"{manifest_path} has no executor.jobs records — did the sweep "
            f"execute anything (or was every cell a cache hit)?")
    events = sweep_trace_events(jobs)
    path = write_chrome_trace(out, events,
                              metadata={"manifest": str(manifest_path),
                                        "kind": manifest.get("kind")})
    print(f"wrote {path}: {len(jobs)} jobs")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="export chrome://tracing timelines")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--manifest", type=Path, default=None,
                        help="render a run manifest's per-worker job timeline")
    source.add_argument("--scheme", default=None,
                        help="run this scheme over the LTE showcase trace and "
                             "render its event timeline (default: abc)")
    parser.add_argument("--duration", type=float, default=3.0,
                        help="simulated seconds for --scheme runs")
    parser.add_argument("--seed", type=int, default=0,
                        help="scheme seed for --scheme runs")
    parser.add_argument("--out", type=Path, default=Path("trace.json"),
                        help="output file (bare names land in REPRO_RUN_DIR "
                             "when set)")
    args = parser.parse_args(argv)

    out = in_run_dir(args.out)
    if args.manifest is not None:
        export_manifest_trace(args.manifest, out)
    else:
        export_scenario_trace(args.scheme or "abc", args.duration,
                              args.seed, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
