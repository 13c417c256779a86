"""Hot-path throughput benchmark: engine dispatch rate and simulation speed.

Four workloads, each reported as events/sec (and pkts/sec where packets flow):

* ``dispatch``      — self-rescheduling timers; pure engine dispatch rate with
  no simulation logic at all.  This is the canonical engine hot-path number.
* ``cancel_churn``  — schedule + cancel churn mimicking per-ACK RTO re-arming,
  the pattern that used to leave dead events in the heap.
* ``fig1_abc``      — the paper's Fig. 1 scenario (ABC over the showcase LTE
  trace), the canonical end-to-end simulation.
* ``fig2_cubic``    — the Fig. 2 setup's transport (Cubic over the feedback
  trace), a loss-heavy counterpart exercising retransmission paths.

Run as a script to (re)generate the committed perf artifact::

    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --out BENCH_engine.json
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_engine_hotpath.py --check-overhead

``--check-overhead`` is the telemetry guard: it re-measures the quick
workloads (best-of-5) and fails if any rate falls more than ``--tolerance``
below the artifact's ``quick_reference`` section — run with
``REPRO_TELEMETRY`` unset it bounds the observability subsystem's
disabled-mode cost.

``BENCH_engine.json`` records the pre-PR baseline (measured with the seed
engine at commit b3a88b9, same machine, same workloads) next to the current
numbers, so every future PR inherits a single-simulation perf trajectory.
Under pytest the module runs each workload once through pytest-benchmark and
asserts only a *loose* floor (2× under profiling-free conditions would be a
regression of more than half the optimisation) when ``REPRO_PERF_GATE=1``;
by default CI keeps the benchmark regression-visible, not regression-gating.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

try:
    import pytest
except ImportError:  # script mode (CI perf smoke) runs without pytest
    pytest = None

from repro.cellular.synthetic import lte_showcase_trace
from repro.experiments.feedback import default_feedback_trace
from repro.experiments.runner import run_single_bottleneck
from repro.simulator.engine import EventLoop
from repro.simulator.scenario import Scenario

from repro.cc import make_cc
from repro.core.params import ABCParams
from repro.core.router import ABCRouterQdisc

#: Pre-PR throughput of the seed engine (commit b3a88b9), measured by this
#: harness in full mode on the reference machine.  The speedup column of
#: ``BENCH_engine.json`` is relative to these numbers.
PRE_PR_BASELINE = {
    "dispatch": {"events_per_sec": 280_579},
    "cancel_churn": {"events_per_sec": 124_669},
    "fig1_abc": {"events_per_sec": 83_254, "pkts_per_sec": 15_778},
    "fig2_cubic": {"events_per_sec": 81_231, "pkts_per_sec": 16_878},
}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------
def run_dispatch(horizon: float = 200.0, n_timers: int = 100) -> dict:
    """Self-rescheduling timers: measures raw engine dispatch throughput."""
    loop = EventLoop()

    def tick(i: int, interval: float) -> None:
        loop.schedule(interval, tick, i, interval)

    for i in range(n_timers):
        loop.schedule(0.001 * (i + 1), tick, i, 0.1 + 0.001 * i)
    t0 = time.perf_counter()
    loop.run(until=horizon)
    wall = time.perf_counter() - t0
    return {"events": loop.events_processed, "wall_sec": wall,
            "events_per_sec": loop.events_processed / wall}


def run_cancel_churn(n_events: int = 200_000) -> dict:
    """Schedule+cancel churn: one live handle is cancelled and re-armed per
    tick, the way the sender re-arms its RTO on every ACK."""
    loop = EventLoop()
    handles: list = []

    def work() -> None:
        if handles:
            handles.pop().cancel()
        handles.append(loop.schedule(10.0, _noop))
        loop.schedule(0.01, work)

    loop.schedule(0.0, work)
    t0 = time.perf_counter()
    loop.run(max_events=n_events)
    wall = time.perf_counter() - t0
    return {"events": loop.events_processed, "wall_sec": wall,
            "events_per_sec": loop.events_processed / wall,
            "pending_after": loop.pending}


def _noop() -> None:
    pass


def run_fig1_abc(duration: float = 15.0) -> dict:
    """The canonical Fig.-1 scenario: one ABC flow over the LTE showcase
    trace, instrumented for events/sec and pkts/sec."""
    trace = lte_showcase_trace(duration=duration, seed=7)
    params = ABCParams()
    scenario = Scenario()
    link = scenario.add_cellular_link(
        trace, qdisc=ABCRouterQdisc(params=params, buffer_packets=250),
        name="cell")
    flow = scenario.add_flow(make_cc("abc", params=params), [link], rtt=0.1)
    t0 = time.perf_counter()
    scenario.run(duration)
    wall = time.perf_counter() - t0
    events = scenario.env.events_processed
    pkts = flow.sender.packets_sent
    return {"events": events, "wall_sec": wall, "sim_duration": duration,
            "events_per_sec": events / wall, "pkts": pkts,
            "pkts_per_sec": pkts / wall}


def run_fig2_cubic(duration: float = 15.0) -> dict:
    """Cubic over the Fig.-2 feedback trace: a drop-tail, loss-recovery-heavy
    workload complementing the ABC scenario."""
    trace = default_feedback_trace(duration=duration, seed=21)
    scenario = Scenario()
    link = scenario.add_cellular_link(trace, name="cell")
    flow = scenario.add_flow(make_cc("cubic"), [link], rtt=0.1)
    t0 = time.perf_counter()
    scenario.run(duration)
    wall = time.perf_counter() - t0
    events = scenario.env.events_processed
    pkts = flow.sender.packets_sent
    return {"events": events, "wall_sec": wall, "sim_duration": duration,
            "events_per_sec": events / wall, "pkts": pkts,
            "pkts_per_sec": pkts / wall}


WORKLOADS = {
    "dispatch": run_dispatch,
    "cancel_churn": run_cancel_churn,
    "fig1_abc": run_fig1_abc,
    "fig2_cubic": run_fig2_cubic,
}

#: Reduced-size arguments for CI smoke runs.
QUICK_ARGS = {
    "dispatch": {"horizon": 40.0},
    "cancel_churn": {"n_events": 40_000},
    "fig1_abc": {"duration": 5.0},
    "fig2_cubic": {"duration": 5.0},
}

#: Repeats for the ``quick_reference`` section and ``--check-overhead``:
#: quick-mode single runs vary ±15% on a busy machine, best-of-5 is stable
#: enough for a small-percentage overhead comparison.
OVERHEAD_REPEATS = 5

#: Wall-clock seconds of discarded warmup before an overhead measurement.
#: Frequency scaling ramps the CPU over the first ~3 s of sustained load
#: (cold quick runs measure ~20% slower than hot ones), so both the
#: reference and the check must measure at the same, hot, operating point.
OVERHEAD_WARMUP_SECONDS = 3.0


def _warm(name: str, seconds: float = OVERHEAD_WARMUP_SECONDS) -> None:
    """Run ``name``'s quick workload repeatedly for ``seconds`` (discarded)."""
    kwargs = QUICK_ARGS[name]
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        WORKLOADS[name](**kwargs)


def measure_hot(name: str, repeats: int = OVERHEAD_REPEATS) -> dict:
    """Warmed best-of-``repeats`` quick measurement (overhead protocol)."""
    _warm(name)
    return measure(name, quick=True, repeats=repeats)


def measure(name: str, quick: bool = False,
            repeats: int | None = None) -> dict:
    """Best-of-``repeats`` measurement of one workload."""
    kwargs = QUICK_ARGS[name] if quick else {}
    if repeats is None:
        repeats = 1 if quick else 3
    best: dict | None = None
    for _ in range(repeats):
        result = WORKLOADS[name](**kwargs)
        if best is None or result["events_per_sec"] > best["events_per_sec"]:
            best = result
    return best


def run_all(quick: bool = False) -> dict:
    current = {}
    speedup = {}
    for name in WORKLOADS:
        current[name] = measure(name, quick=quick)
        base = PRE_PR_BASELINE[name]["events_per_sec"]
        speedup[name] = round(current[name]["events_per_sec"] / base, 2)
    payload = {
        "schema": 2,
        "harness": "benchmarks/bench_engine_hotpath.py",
        "quick": quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "pre_pr_baseline": PRE_PR_BASELINE,
        "current": current,
        "speedup_vs_pre_pr": speedup,
    }
    if not quick:
        # Quick-mode reference rates for --check-overhead: the comparison
        # must be quick-vs-quick (full-mode workloads are larger, so their
        # rates are not comparable to a quick run) and hot-vs-hot (see
        # OVERHEAD_WARMUP_SECONDS).
        payload["quick_reference"] = {
            name: {"events_per_sec": measure_hot(name)["events_per_sec"]}
            for name in WORKLOADS}
    return payload


def check_overhead(artifact: Path, tolerance: float,
                   repeats: int = OVERHEAD_REPEATS) -> int:
    """Guard mode: assert quick-mode rates within ``tolerance`` of reference.

    Re-measures every workload (best-of-``repeats``, quick args) under the
    *current* environment and compares against the committed artifact's
    ``quick_reference`` section.  Run with ``REPRO_TELEMETRY`` unset this
    bounds the telemetry subsystem's disabled-mode overhead; returns a
    non-zero exit status on any violation.
    """
    payload = json.loads(artifact.read_text())
    reference = payload.get("quick_reference")
    if not reference:
        print(f"error: {artifact} has no quick_reference section — "
              f"regenerate it with --out (full mode)", file=sys.stderr)
        return 2
    failures = []
    for name in WORKLOADS:
        rate = measure_hot(name, repeats=repeats)["events_per_sec"]
        ref = reference[name]["events_per_sec"]
        ratio = rate / ref
        verdict = "ok" if ratio >= 1.0 - tolerance else "FAIL"
        print(f"{name:>14}: {rate:>12,.0f} events/s vs reference "
              f"{ref:>12,.0f} ({ratio:6.1%})  {verdict}")
        if ratio < 1.0 - tolerance:
            failures.append(name)
    if failures:
        print(f"overhead check FAILED (>{tolerance:.0%} below reference): "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"overhead check passed (tolerance {tolerance:.0%})")
    return 0


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------
if pytest is not None:
    @pytest.mark.benchmark(group="engine-hotpath")
    @pytest.mark.parametrize("name", list(WORKLOADS))
    def test_engine_hotpath(benchmark, name):
        result = benchmark.pedantic(measure, args=(name,),
                                    kwargs={"quick": True},
                                    rounds=1, iterations=1, warmup_rounds=0)
        rate = result["events_per_sec"]
        base = PRE_PR_BASELINE[name]["events_per_sec"]
        print(f"\n  [{name}] {rate:,.0f} events/s "
              f"({rate / base:.2f}x pre-PR baseline)")
        import os
        if os.environ.get("REPRO_PERF_GATE") == "1":
            # Loose floor: quick mode on shared CI runners is noisy; anything
            # below 1.5x the seed engine means the optimisation regressed
            # badly.
            assert rate > 1.5 * base, (
                f"{name}: {rate:,.0f} events/s is below 1.5x the pre-PR "
                f"baseline ({base:,.0f})")


# ---------------------------------------------------------------------------
# Script mode: write the perf artifact
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced workloads (CI smoke)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON artifact here")
    parser.add_argument("--check-overhead", action="store_true",
                        help="compare quick-mode rates against the "
                             "artifact's quick_reference and fail beyond "
                             "--tolerance (telemetry overhead guard)")
    parser.add_argument("--artifact", type=Path,
                        default=Path(__file__).resolve().parent.parent
                        / "BENCH_engine.json",
                        help="artifact to check against (default: committed "
                             "BENCH_engine.json)")
    parser.add_argument("--tolerance", type=float, default=0.02,
                        help="allowed fractional slowdown for "
                             "--check-overhead (default 0.02; raise on "
                             "noisy shared runners)")
    args = parser.parse_args(argv)
    if args.check_overhead:
        return check_overhead(args.artifact, args.tolerance)
    payload = run_all(quick=args.quick)
    for name, result in payload["current"].items():
        extra = (f", {result['pkts_per_sec']:,.0f} pkts/s"
                 if "pkts_per_sec" in result else "")
        print(f"{name:>14}: {result['events_per_sec']:>12,.0f} events/s"
              f"{extra}  ({payload['speedup_vs_pre_pr'][name]:.2f}x pre-PR)")
    if args.out is not None:
        args.out.write_text(json.dumps(payload, indent=1) + "\n")
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
