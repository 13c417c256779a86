"""The layered performance ledger: one workload per invocation.

    python3 benchmarks/ledger/run.py --workload metro_ack --seed 1 \\
        --seconds 15 --trace 0          # end-to-end metrics, untraced
    python3 benchmarks/ledger/run.py --workload metro_ack --trace 1
                                        # per-layer metrics + chrome trace
    python3 benchmarks/ledger/run.py --set A.json --seeds 1-10
                                        # every workload x seed, fresh process
    python3 benchmarks/ledger/run.py --compare A.json B.json

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when any operation failed.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
if __package__ in (None, ""):
    sys.path.insert(0, str(HERE.parent))

from ledger import report as ledger_report  # noqa: E402

#: Fresh-interpreter launches behind ``setup_s`` (the median is reported).
SETUP_LAUNCHES = 5
#: Timed repetitions never drop below this, however short ``--seconds`` is.
MIN_REPS = 3


def scrub_environment() -> List[str]:
    """Remove every ``REPRO_*`` variable; the benchmark measures defaults."""
    removed = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in removed:
        del os.environ[name]
    return removed


def host_facts() -> Dict[str, Any]:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(),
            "load1_start": os.getloadavg()[0]}


def use_checkout_source() -> None:
    """Import ``repro`` from this checkout, never from an installed copy."""
    src = REPO / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"error: {src}/repro not found; the ledger "
                         f"measures the checkout it lives in")
    sys.path.insert(0, str(src))


def _rss_mib(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def measure_setup(workload: str, seed: int, smoke: bool) -> List[float]:
    """Wall time of fresh interpreters that import, build and exit, at the
    reference machine's speed (kernel sampled around each launch)."""
    from ledger.workloads import REFERENCE_KERNEL_S, reference_kernel

    command = [sys.executable, str(HERE / "run.py"), "--probe-setup",
               "--workload", workload, "--seed", str(seed)]
    if smoke:
        command.append("--smoke")
    samples = []
    kernel = reference_kernel()
    for _ in range(1 if smoke else SETUP_LAUNCHES):
        t0 = time.perf_counter()
        # No timeout: waiting with one polls in steps of up to 50 ms, which
        # would quantise a 0.4 s measurement.
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - t0
        after = reference_kernel()
        samples.append(wall * REFERENCE_KERNEL_S * 2 / (kernel + after))
        kernel = after
    return samples


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            work_root: Path, trace_out: Optional[Path] = None,
            workload: Any = None) -> Dict[str, Any]:
    """Measure one workload; returns the full report (see README.md).

    ``workload`` lets a caller hand in an already built workload object.
    """
    from ledger import workloads

    benchmark = ledger_report.load_benchmark()
    host = host_facts()
    if workload is None:
        workload = workloads.make_workload(name, seed, smoke)
        workload.build()
    min_reps = MIN_REPS
    if smoke:
        seconds, min_reps = 0, 1
    work_root.mkdir(parents=True, exist_ok=True)
    cpu_start = _cpu_s()
    try:
        workload.warm()
        if trace:
            reps, values, samples, extra = _per_layer(
                workload, work_root, seconds, min_reps, trace_out)
        else:
            reps = workloads.run_repetitions(workload, work_root, seconds,
                                             min_reps)
            values = {"peak_rss_mb": (_rss_mib(resource.RUSAGE_SELF)
                                      + _rss_mib(resource.RUSAGE_CHILDREN))}
            extra = {}
        cpu_s = _cpu_s() - cpu_start
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    failures = [line for rep in reps for line in rep.failures]
    attempted = sum(rep.jobs for rep in reps)
    if trace:
        specs = benchmark["per_layer"]
        values.update({"failed_share": len(failures) / attempted,
                       "spec.expand_ms": workload.expand_s * 1e3,
                       "host.cpu_s": cpu_s,
                       "host.load1_start": host["load1_start"]})
        unknown = set(values) - {spec["name"] for spec in specs}
        if unknown:
            raise AssertionError(f"metrics missing from BENCHMARK.json: "
                                 f"{sorted(unknown)}")
        values = {**{spec["name"]: 0.0 for spec in specs}, **values}
    else:
        specs = benchmark["end_to_end"]
        samples = {"us_per_op": [rep.us_per_op for rep in reps],
                   "setup_s": measure_setup(name, seed, smoke)}
        values.update({key: median(samples[key]) for key in samples})
    return {
        "schema": 1, "workload": name, "seed": seed, "trace": int(trace),
        "smoke": smoke, "seconds": seconds, "host": host,
        "correct": not failures, "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "metrics": {spec["name"]: {"value": values[spec["name"]],
                                   "unit": spec["unit"]} for spec in specs},
        "samples": samples,
        "reps": [{"wall_s": rep.wall_s, "ops": rep.ops, "jobs": rep.jobs,
                  "speed": rep.speed, "parts": rep.parts} for rep in reps],
        "digest": workloads.digest(reps[0].digests),
        **extra,
    }


def _per_layer(workload: Any, work_root: Path, seconds: float, min_reps: int,
               trace_out: Optional[Path]):
    """The traced run: untraced repetitions for the from-outside timings and
    the tracing overhead, then one traced repetition (simulator workloads)
    or the direct layer calls (``runtime_arms``)."""
    from ledger import fold as ledger_fold
    from ledger import workloads

    spans = ledger_fold.Spans()
    layer_fold = ledger_fold.LayerFold()
    values: Dict[str, float] = {}
    extra: Dict[str, Any] = {}
    traced_reps: List[Any] = []
    with spans.span(workload.name, seed=workload.seed):
        timed = workloads.run_repetitions(workload, work_root, seconds / 2,
                                          max(1, min_reps - 1), spans.span)
        if hasattr(workload, "layer_calls"):
            with spans.span("layer_calls"):
                values.update(workload.layer_calls(work_root))
        else:
            with ledger_fold.traced(layer_fold, spans):
                traced_reps = workloads.run_repetitions(
                    workload, work_root, 0, 1, spans.span)
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        spans.write_chrome(trace_out)
        extra["trace_file"] = str(trace_out)

    wall = median(rep.wall_s for rep in timed)
    samples = {"wall_s": [rep.wall_s for rep in timed]}
    values.update({
        "wall_s": wall,
        "raw_us_per_op": median(rep.wall_s / rep.ops for rep in timed) * 1e6,
        "host.kernel_ms": median(s for rep in timed
                                 for s in rep.kernel_s) * 1e3,
        "jobs_per_s": timed[0].jobs / wall,
        **timed[0].sim,
    })
    if traced_reps:
        job_ms = [s * 1e3 for rep in timed for s in rep.job_s]
        values.update(layer_fold.metrics())
        values.update(ledger_fold.phase_shares(spans))
        values.update({
            "sim_s_per_s": workload.simulated_seconds / wall,
            "trace.overhead_ratio": (traced_reps[0].us_per_op
                                     / median(r.us_per_op for r in timed)),
        })
        if job_ms:
            values.update({
                "job_ms_p50": median(job_ms),
                "job_ms_p75": ledger_report.percentile(job_ms, 75),
                "job_samples": len(job_ms),
                "metro.aggregate_ms": median(
                    rep.parts["metro.aggregate"] for rep in timed) * 1e3,
            })
        extra["partition"] = layer_fold.partition()
    else:
        values.update(_arm_metrics(timed, workload))
    return timed + traced_reps, values, samples, extra


def _arm_metrics(reps: Sequence[Any], workload: Any) -> Dict[str, float]:
    out = {f"executor.{arm}_us_per_job":
           median(rep.parts[arm] for rep in reps)
           / workload.arm_jobs(arm) * 1e6
           for arm in workload.ARMS if arm != "pool_cold"}
    out["executor.pool_spinup_ms"] = median(
        rep.parts["pool_cold"] - rep.parts["pool_warm"] for rep in reps) * 1e3
    return out


def print_report(result: Dict[str, Any], scrubbed: List[str]) -> None:
    host = result["host"]
    benchmark = ledger_report.load_benchmark()
    specs = benchmark["per_layer" if result["trace"] else "end_to_end"]
    print(f"ledger: workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  "
          f"repetitions {len(result['reps'])}"
          f"{'  (smoke size)' if result['smoke'] else ''}")
    print(f"host: nproc {host['nproc']}  python {host['python']}  "
          f"{host['platform']}  load1 {host['load1_start']:.2f}")
    print(f"scrubbed environment: {', '.join(scrubbed) or '(none set)'}")
    ledger_report.print_metrics(
        "per-layer metrics" if result["trace"] else "end-to-end metrics",
        specs, {name: m["value"] for name, m in result["metrics"].items()},
        result["samples"])
    print(f"\ndigest {result['digest']}  attempted {result['attempted']}  "
          f"failed {result['failed']}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    if "trace_file" in result:
        print(f"chrome trace: {result['trace_file']}")


def emit(result: Dict[str, Any], scrubbed: List[str],
         out: Optional[Path] = None) -> int:
    """Print the ledger and the result line; returns the exit code."""
    print_report(result, scrubbed)
    if out is not None:
        full = {**result, "scrubbed_env": scrubbed}
        out.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


# ---------------------------------------------------------------------------
# --set: every workload x seed, each in a fresh interpreter
# ---------------------------------------------------------------------------
def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_set(out: Path, names: Sequence[str], seeds: Sequence[int],
            seconds: int, smoke: bool) -> int:
    """One untraced run per workload x seed plus one traced run per workload
    (first seed); writes every run's report to ``out``."""
    benchmark = ledger_report.load_benchmark()
    scratch = REPO / ".ledger" / f"set-{os.getpid()}"
    scratch.mkdir(parents=True)
    runs: List[Dict[str, Any]] = []
    code = 0
    try:
        for name in names:
            for seed, trace in [(s, 0) for s in seeds] + [(seeds[0], 1)]:
                run_out = scratch / "run.json"
                command = [sys.executable, str(HERE / "run.py"),
                           "--workload", name, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace),
                           "--out", str(run_out)]
                if smoke:
                    command.append("--smoke")
                done = subprocess.run(command, stdout=subprocess.DEVNULL)
                code = code or done.returncode
                with run_out.open(encoding="utf-8") as handle:
                    runs.append(json.load(handle))
                print(f"  ran {name} seed {seed} trace {trace}: exit "
                      f"{done.returncode}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    out.write_text(json.dumps({"schema": 1, "runs": runs}, indent=1) + "\n",
                   encoding="utf-8")
    for name in names:
        mine = [r for r in runs if r["workload"] == name and not r["trace"]]
        specs = benchmark["end_to_end"]
        per_metric = {spec["name"]: [r["metrics"][spec["name"]]["value"]
                                     for r in mine] for spec in specs}
        ledger_report.print_metrics(
            f"{name}: end-to-end over seeds {list(seeds)}", specs,
            {k: median(v) for k, v in per_metric.items()}, per_metric)
    print(f"\nwrote {out}")
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    from ledger.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="seconds of repetitions to time (default: "
                             "run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repetition (self-test)")
    parser.add_argument("--out", type=Path,
                        help="also write the full report (raw samples, "
                             "repetitions, digest) as JSON")
    parser.add_argument("--set", type=Path, metavar="OUT.json",
                        help="run every workload (or --workload) on every "
                             "--seeds value and write one combined report")
    parser.add_argument("--seeds", type=parse_seeds, default=[1],
                        help="for --set: e.g. 1-10 or 1,2,5")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return ledger_report.compare(*args.compare)
    scrubbed = scrub_environment()
    use_checkout_source()
    seconds = (args.seconds if args.seconds is not None
               else ledger_report.load_benchmark()["run_seconds"])
    if args.set:
        names = [args.workload] if args.workload else WORKLOADS
        return run_set(args.set, names, args.seeds, seconds, args.smoke)
    if args.workload is None:
        parser.error("--workload is required (or use --set / --compare)")
    if args.probe_setup:
        from ledger.workloads import make_workload
        make_workload(args.workload, args.seed, args.smoke).build()
        return 0

    scratch = REPO / ".ledger"
    result = run_one(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke,
        work_root=scratch / f"work-{os.getpid()}",
        trace_out=scratch / f"trace-{args.workload}-seed{args.seed}.json")
    return emit(result, scrubbed, args.out)


if __name__ == "__main__":
    sys.exit(main())
