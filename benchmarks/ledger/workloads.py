"""The four benchmark workloads.

Each workload has three steps the harness times separately:

``build()``
    what a user pays before the first job can run — trace synthesis, spec
    construction and ``expand()`` (this is what ``setup_s`` measures, in a
    fresh interpreter);
``warm()``
    a cut-down pass so lazy imports and allocator growth are not charged to
    the first timed repetition;
``repetition(ctx)``
    one closed-loop pass over the workload (one job in flight), returning a
    :class:`Rep` with the wall time, the work done, every failed check and a
    digest per job.  ``ctx`` (:class:`RepContext`) carries the scratch
    directory, the span recorder and the speed reference: the workload calls
    ``ctx.tick()`` between jobs, outside every timed interval.

Only public entry points of ``repro`` are used (listed in README.md), so the
harness keeps running while the code underneath is refactored.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import os
import shutil
import sys
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional

#: One op on the simulator workloads: an MTU of payload delivered to a
#: receiver, as reported by the results (identical on every code path).
MTU_BYTES = 1500.0

ACK_MIX = "abc:0.6,cubic:0.3,bbr:0.1"
PACED_MIX = "bbr:0.6,pcc:0.2,abc:0.2"

#: Fig. 9 traces: two carriers with different means.
FIG9_TRACES = ("Verizon-LTE-1", "TMobile-LTE-1")

#: Collapse detectors, not the paper's numbers: a workload may not fail on a
#: seed nobody tried.  Over 95 seeds (0-79, 101-110 and five large ones) the
#: measured ratios were 0.95-1.91 and 1.66-11.7.
MIN_ABC_OVER_CODEL_UTIL = 0.7
MIN_CUBIC_OVER_ABC_DELAY_P95 = 1.2


#: What the reference kernel takes on the machine ``us_per_op`` is quoted for.
REFERENCE_KERNEL_S = 0.005


def reference_kernel() -> float:
    """Time a fixed slice of interpreter work (about 5 ms).

    This box runs in speed phases that differ by 20-30 % and switch within a
    second (a neighbour on the sibling hardware thread); a repetition's wall
    time follows them.  The kernel is run between jobs, so its mean over a
    repetition says how fast the machine was *during that repetition*, and
    wall / kernel cancels the phases (README.md, "Noise").
    """
    t0 = perf_counter()
    total = 0
    table: Dict[int, int] = {}
    for i in range(60000):
        total += i * i % 7
        table[i & 1023] = total
    return perf_counter() - t0


def no_span(_name: str, **_args: Any):
    return nullcontext()


@dataclass
class RepContext:
    """What the harness hands a repetition."""

    work_dir: Path
    span: Callable[..., Any] = no_span
    kernel_s: List[float] = field(default_factory=list)

    def tick(self, *_progress: Any) -> None:
        """Sample the reference kernel (also usable as a progress callback)."""
        self.kernel_s.append(reference_kernel())


@dataclass
class Rep:
    """What one repetition did."""

    #: Wall time of the program's work; reference-kernel time is left out.
    wall_s: float = 0.0
    ops: float = 0.0
    jobs: int = 0
    #: One line per failed operation (raised, JobFailure, broken check).
    failures: List[str] = field(default_factory=list)
    #: One digest per job, in job order; repetitions must agree.
    digests: List[str] = field(default_factory=list)
    #: Exact simulated statistics (``sim.*``), identical run to run.
    sim: Dict[str, float] = field(default_factory=dict)
    #: Timings taken from outside the program, in seconds, by name.
    parts: Dict[str, float] = field(default_factory=dict)
    job_s: List[float] = field(default_factory=list)
    #: Reference-kernel samples taken during the repetition.
    kernel_s: List[float] = field(default_factory=list)

    @property
    def speed(self) -> float:
        """Machine speed during the repetition, 1.0 = the reference machine."""
        return REFERENCE_KERNEL_S * len(self.kernel_s) / sum(self.kernel_s)

    @property
    def us_per_op(self) -> float:
        """Wall per op in microseconds, at the reference machine's speed."""
        return self.wall_s * self.speed / self.ops * 1e6


def digest(value: Any) -> str:
    """A content digest of a job result (dicts, dataclasses, numpy, floats)."""
    return hashlib.sha256(repr(_canonical(value)).encode()).hexdigest()[:16]


_PLAIN = {int, float, str, bool, type(None)}


def _canonical(value: Any) -> Any:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (type(value).__name__,
                _canonical({f.name: getattr(value, f.name)
                            for f in dataclasses.fields(value)}))
    if isinstance(value, dict):
        return sorted((str(k), _canonical(v)) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        if set(map(type, value)) <= _PLAIN:
            return value
        return [_canonical(v) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _canonical(value.tolist())
    return value


def _guarded(rep: Rep, label: str, call: Callable[[], Any]) -> Any:
    """Run ``call``; a raise is a failed operation, not a crashed benchmark."""
    try:
        return call()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rep.failures.append(f"{label}: raised")
        return None


# ---------------------------------------------------------------------------
# metro_ack / metro_paced
# ---------------------------------------------------------------------------
class MetroCity:
    """A 20-cell, 8 s city run as ``[job.run() for job in jobs]``."""

    def __init__(self, name: str, mix: str, seed: int, smoke: bool):
        self.name = name
        self.mix = mix
        self.seed = seed
        self.smoke = smoke
        self.n_cells, self.duration = (2, 1.0) if smoke else (20, 8.0)
        self.jobs: List[Any] = []
        self.expand_s = 0.0

    def _spec(self, n_cells: int, duration: float):
        from repro.metro import metro_pack

        return metro_pack(n_cells=n_cells, duration=duration,
                          trace_seed=self.seed, seeds=(self.seed,),
                          mixes=(self.mix,), arrival_rate=1.0)

    def build(self) -> None:
        spec = self._spec(self.n_cells, self.duration)
        t0 = perf_counter()
        _cells, self.jobs = spec.expand()
        self.expand_s = perf_counter() - t0

    @property
    def simulated_seconds(self) -> float:
        return len(self.jobs) * self.duration

    def warm(self) -> None:
        from repro.metro import aggregate_city

        _cells, jobs = self._spec(2, 1.0).expand()
        aggregate_city([job.run() for job in jobs])

    def repetition(self, ctx: RepContext) -> Rep:
        from repro.metro import aggregate_city

        rep = Rep(jobs=len(self.jobs))
        results = []
        for job in self.jobs:
            ctx.tick()
            t0 = perf_counter()
            results.append(_guarded(rep, job.label, job.run))
            rep.job_s.append(perf_counter() - t0)
        ctx.tick()
        good = [r for r in results if r is not None]
        t0 = perf_counter()
        city = _guarded(rep, "aggregate_city",
                        lambda: aggregate_city(good)) if good else None
        rep.parts["metro.aggregate"] = perf_counter() - t0
        rep.wall_s = sum(rep.job_s) + rep.parts["metro.aggregate"]
        rep.digests = [digest(r) for r in results]
        for r in good:
            if not 0.0 <= r["utilization"] <= 1.0:
                rep.failures.append(f"{r['cell']}: utilisation out of [0, 1]")
            if r["completed_flows"] > r["offered_flows"]:
                rep.failures.append(f"{r['cell']}: completed > offered flows")
        delivered = sum(r["throughput_bps"] for r in good) * self.duration / 8
        rep.ops = delivered / MTU_BYTES
        if city is not None:
            rep.sim = {"sim.cells": city["cells"],
                       "sim.flows": city["offered_flows"],
                       "sim.utilization_mean": city["utilization_mean"],
                       "sim.queuing_p99_ms": city["queuing_p99_ms"]}
        return rep


# ---------------------------------------------------------------------------
# paper_figs
# ---------------------------------------------------------------------------
class PaperFigs:
    """One "regenerate the figures" session through a single executor."""

    name = "paper_figs"

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        if smoke:
            self.trace_names = FIG9_TRACES[:1]
            self.fig9_s, self.fig10_s, self.fig7_s, self.stagger = (
                1.0, 1.0, 2.0, 0.4)
        else:
            self.trace_names = FIG9_TRACES
            self.fig9_s, self.fig10_s, self.fig7_s, self.stagger = (
                12.0, 6.0, 20.0, 5.0)
        self.traces: Dict[str, Any] = {}
        self.expand_s = 0.0

    def build(self) -> None:
        from repro.cellular.synthetic import synthetic_trace_set
        from repro.experiments.runner import SCHEME_NAMES
        from repro.runtime import SweepSpec

        self.traces = synthetic_trace_set(duration=self.fig9_s,
                                          seed=self.seed,
                                          names=list(self.trace_names))
        t0 = perf_counter()
        SweepSpec(schemes=SCHEME_NAMES, traces=self.traces,
                  duration=self.fig9_s, seeds=(self.seed,)).expand()
        self.expand_s = perf_counter() - t0

    @property
    def simulated_seconds(self) -> float:
        from repro.experiments.runner import SCHEME_NAMES

        return (len(SCHEME_NAMES) * len(self.trace_names) * self.fig9_s
                + 4 * self.fig10_s + self.fig7_s)

    def warm(self) -> None:
        if self.smoke:
            return
        small = PaperFigs(self.seed, smoke=True)
        small.build()
        small._session(Rep(), RepContext(Path()), cache_dir=None)

    def _session(self, rep: Rep, ctx: RepContext,
                 cache_dir: Optional[Path]) -> Dict[str, Any]:
        from repro.experiments.coexistence import fig7_coexistence_timeseries
        from repro.experiments.runner import SCHEME_NAMES, run_cellular_sweep
        from repro.experiments.wifi_eval import fig10_wifi
        from repro.runtime import SweepExecutor

        # The progress callback is the executor's public per-job hook; it
        # carries the speed-reference samples (and selects the observed
        # drive path, which is < 1 % of this workload's wall).
        executor = SweepExecutor(jobs=1, cache_dir=cache_dir,
                                 progress=ctx.tick)
        figures: Dict[str, Any] = {}
        calls = {
            "fig9": lambda: run_cellular_sweep(
                SCHEME_NAMES, self.traces, duration=self.fig9_s,
                executor=executor, seeds=(self.seed,)),
            "fig10": lambda: fig10_wifi(
                num_users=2, duration=self.fig10_s, seed=self.seed,
                abc_delay_thresholds=(0.06,),
                baselines=("cubic+codel", "bbr", "cubic"),
                executor=executor),
            "fig7": lambda: fig7_coexistence_timeseries(
                duration=self.fig7_s, stagger=self.stagger,
                executor=executor),
        }
        for name, call in calls.items():
            t0, kernel0 = perf_counter(), sum(ctx.kernel_s)
            with ctx.span(name):
                figures[name] = _guarded(rep, name, call)
            rep.parts[name] = (perf_counter() - t0
                               - (sum(ctx.kernel_s) - kernel0))
            rep.wall_s += rep.parts[name]
            stats = executor.last_stats
            rep.jobs += stats.total
            if figures[name] is not None and stats.executed != stats.total:
                rep.failures.append(
                    f"{name}: {stats.total - stats.executed} jobs were not "
                    f"executed (fresh cache expected)")
        return figures

    def repetition(self, ctx: RepContext) -> Rep:
        rep = Rep()
        figures = self._session(rep, ctx, ctx.work_dir / "cache")
        fig9, fig10, fig7 = figures["fig9"], figures["fig10"], figures["fig7"]
        delivered = 0.0
        if fig9 is not None:
            cells = [fig9[s][t] for s in fig9 for t in fig9[s]]
            rep.digests += [digest(c) for c in cells]
            delivered += sum(c.throughput_bps for c in cells) * self.fig9_s / 8
            for c in cells:
                if not 0.0 <= c.utilization <= 1.0:
                    rep.failures.append(
                        f"fig9 {c.scheme}/{c.trace}: utilisation out of "
                        f"[0, 1]")
            rep.sim.update(self._claims(rep, fig9))
        if fig10 is not None:
            rep.digests += [digest(row) for row in fig10]
            delivered += (sum(row.throughput_mbps for row in fig10) * 1e6
                          * self.fig10_s / 8)
        if fig7 is not None:
            rep.digests.append(digest(fig7))
            # Fig. 7 reports throughput after the last flow has arrived.
            delivered += (sum(fig7.abc_throughputs_mbps
                              + fig7.cubic_throughputs_mbps) * 1e6
                          * (self.fig7_s - 3 * self.stagger) / 8)
        rep.ops = delivered / MTU_BYTES
        return rep

    def _claims(self, rep: Rep, fig9: Dict[str, Dict[str, Any]]
                ) -> Dict[str, float]:
        def mean(scheme: str, attr: str) -> float:
            cells = fig9[scheme].values()
            return sum(getattr(c, attr) for c in cells) / len(cells)

        every = [c.utilization for s in fig9 for c in fig9[s].values()]
        abc_util = mean("abc", "utilization")
        util_ratio = abc_util / max(mean("cubic+codel", "utilization"), 1e-9)
        delay_ratio = (mean("cubic", "delay_p95_ms")
                       / max(mean("abc", "delay_p95_ms"), 1e-9))
        if not self.smoke:  # a 1 s run is all start-up transient
            if util_ratio < MIN_ABC_OVER_CODEL_UTIL:
                rep.failures.append(
                    f"claim: ABC utilisation is {util_ratio:.2f}x "
                    f"Cubic+CoDel's (< {MIN_ABC_OVER_CODEL_UTIL})")
            if delay_ratio < MIN_CUBIC_OVER_ABC_DELAY_P95:
                rep.failures.append(
                    f"claim: Cubic p95 delay is {delay_ratio:.2f}x ABC's "
                    f"(< {MIN_CUBIC_OVER_ABC_DELAY_P95})")
        return {"sim.cells": len(every),
                "sim.flows": len(every),
                "sim.utilization_mean": sum(every) / len(every),
                "sim.abc_util": abc_util,
                "sim.abc_over_codel_util": util_ratio,
                "sim.cubic_over_abc_delay_p95": delay_ratio}


# ---------------------------------------------------------------------------
# runtime_arms
# ---------------------------------------------------------------------------
#: Value tables ``echo_cell`` slices, so its body costs a few microseconds.
_ECHO_FLOATS = [k / 10007.0 for k in range(10007)]
_ECHO_COUNTS = [(k * 37) & 0xFF for k in range(1024)]


def echo_cell(index: int, seed: int) -> Dict[str, Any]:
    """A near-free job body returning a result shaped like ``metro_cell``'s.

    Module-level so pool workers can import it.  Every value is picked from
    two fixed tables at an offset derived from ``(index, seed)``, so the same
    arguments give the same ~2 KB dict.
    """
    base = (index * 2654435761 + seed * 40503 + 12345) & 0xFFFFFFFF
    at = base % 9800
    floats = _ECHO_FLOATS[at:at + 200]
    return {
        "cell": f"echo-{index:05d}",
        "mix": ACK_MIX,
        "seed": seed,
        "utilization": floats[0],
        "throughput_bps": floats[1] * 2e7,
        "queuing_p99_ms": floats[2] * 500.0,
        "queuing_hist": _ECHO_COUNTS[base % 960:base % 960 + 64],
        "base_throughputs_bps": floats[3:5],
        "churn_throughputs_bps": floats[5:100],
        "fct_s": floats[100:],
        "offered_flows": 12,
        "completed_flows": 10,
        "drops": base & 0xFF,
        "schemes": ["abc", "cubic", "bbr"] * 4,
    }


def _progress_sink(_progress: Any) -> None:
    """The cheapest possible progress callback (selects the observed path)."""


class RuntimeArms:
    """The same near-free jobs pushed through each executor arm in turn."""

    name = "runtime_arms"

    #: arm -> (share of the jobs it runs, rounds, counts towards us_per_op).
    #: Only the serial arms that create no files are counted.  Creating a
    #: file costs 230-590 us on this box's ext4 and varies 2.5x between runs
    #: (38 us on tmpfs, where the benchmark may not write); a 2-worker pool
    #: on 2 vCPUs varies by 35 % from one run() to the next.  Both are the
    #: machine, not the program, so those arms are per-layer rows only, run
    #: on fewer jobs, and the counted arms make several rounds instead.
    ARMS = {
        "direct": (1.0, 5, True), "plain": (1.0, 5, True),
        "observed": (1.0, 5, True), "resilient": (1.0, 5, True),
        "journal": (0.125, 1, False), "resume": (0.125, 1, True),
        "cold_cached": (0.125, 1, False), "replay": (0.125, 1, True),
        "pool_cold": (0.25, 1, False), "pool_warm": (0.25, 1, False),
        "pool_resilient": (0.25, 1, False),
    }

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.n_jobs = 48 if smoke else 4000
        self.pool_workers = min(2, os.cpu_count() or 1)
        self.jobs: List[Any] = []
        self.expand_s = 0.0

    def build(self) -> None:
        from repro.runtime import SweepJob

        t0 = perf_counter()
        self.jobs = [SweepJob(func=echo_cell,
                              kwargs={"index": i, "seed": self.seed},
                              label=f"echo/{i}")
                     for i in range(self.n_jobs)]
        self.expand_s = perf_counter() - t0

    def warm(self) -> None:
        from repro.runtime import SweepExecutor

        SweepExecutor(jobs=1).run(self.jobs[:48])

    def arm_jobs(self, name: str) -> int:
        """Jobs through ``name`` in one repetition, over all its rounds."""
        share, rounds, _counted = self.ARMS[name]
        return int(self.n_jobs * share) * rounds

    def repetition(self, ctx: RepContext) -> Rep:
        from repro.runtime import SweepExecutor, is_failure

        rep = Rep()
        journal_dir = ctx.work_dir / "journal"
        cache_dir = ctx.work_dir / "cache"
        reference = [job.run() for job in self.jobs]
        rep.digests = [digest(r) for r in reference]

        def arm(name: str, run: Callable[[List[Any]], List[Any]]) -> None:
            share, rounds, counted = self.ARMS[name]
            jobs = self.jobs[:int(self.n_jobs * share)]
            rep.parts[name] = 0.0
            for _ in range(rounds):
                ctx.tick()
                t0 = perf_counter()
                with ctx.span(name):
                    results = _guarded(rep, name, lambda: run(jobs))
                rep.parts[name] += perf_counter() - t0
                if results is None:
                    continue
                wrong = sum(1 for got, want in zip(results, reference)
                            if is_failure(got) or got != want)
                wrong += abs(len(results) - len(jobs))
                rep.failures.extend(
                    [f"{name}: result differs from direct job.run()"] * wrong)
            rep.jobs += len(jobs) * rounds
            if counted:
                rep.wall_s += rep.parts[name]
                rep.ops += len(jobs) * rounds

        def through(name: str, executor: Any,
                    expect_executed: Optional[int] = None) -> None:
            arm(name, executor.run)
            executed = executor.last_stats.executed
            if expect_executed not in (None, executed):
                rep.failures.append(f"{name}: executed {executed} jobs, "
                                    f"expected {expect_executed}")

        files = self.arm_jobs("journal")
        arm("direct", lambda jobs: [job.run() for job in jobs])
        through("plain", SweepExecutor(jobs=1))
        through("observed", SweepExecutor(jobs=1, progress=_progress_sink))
        through("resilient", SweepExecutor(jobs=1, retries=1, timeout=60))
        through("journal", SweepExecutor(jobs=1, journal=journal_dir),
                expect_executed=files)
        through("resume", SweepExecutor(jobs=1, journal=journal_dir),
                expect_executed=0)
        through("cold_cached", SweepExecutor(jobs=1, cache_dir=cache_dir),
                expect_executed=files)
        through("replay", SweepExecutor(jobs=1, cache_dir=cache_dir),
                expect_executed=0)
        with SweepExecutor(jobs=self.pool_workers) as pool:
            through("pool_cold", pool)
            through("pool_warm", pool)
        with SweepExecutor(jobs=self.pool_workers, retries=1,
                           timeout=60) as pool:
            through("pool_resilient", pool)
        ctx.tick()
        return rep

    def layer_calls(self, work_dir: Path) -> Dict[str, float]:
        """Direct calls into the cache and journal layers (traced run only)."""
        from repro.runtime import (ResultCache, RunJournal, SweepExecutor,
                                   run_key_for)

        jobs = self.jobs
        values = [job.run() for job in jobs]
        salt = SweepExecutor(jobs=1).salt
        t0 = perf_counter()
        keys = [job.cache_key(salt) for job in jobs]
        t1 = perf_counter()
        cache = ResultCache(work_dir / "layer-cache")
        for key, value in zip(keys, values):
            cache.put(key, value)
        t2 = perf_counter()
        hits = sum(1 for key in keys if cache.get(key)[0])
        t3 = perf_counter()
        if hits != len(keys):
            raise AssertionError(f"cache returned {hits}/{len(keys)} entries")
        stored = sum(path.stat().st_size
                     for path in cache.root.glob("*/*.pkl"))
        with RunJournal(work_dir / "layer-journal", run_key_for(keys),
                        store=cache) as journal:
            t4 = perf_counter()
            for key, job in zip(keys, jobs):
                journal.record(key, job.label)
            t5 = perf_counter()
        n = len(jobs)
        return {"cache.key_us": (t1 - t0) / n * 1e6,
                "cache.put_us": (t2 - t1) / n * 1e6,
                "cache.get_us": (t3 - t2) / n * 1e6,
                "cache.bytes_per_entry": stored / n,
                "journal.record_us": (t5 - t4) / n * 1e6}


def make_workload(name: str, seed: int, smoke: bool = False):
    seed = abs(int(seed))
    if name == "metro_ack":
        return MetroCity(name, ACK_MIX, seed, smoke)
    if name == "metro_paced":
        return MetroCity(name, PACED_MIX, seed, smoke)
    if name == "paper_figs":
        return PaperFigs(seed, smoke)
    if name == "runtime_arms":
        return RuntimeArms(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("metro_ack", "metro_paced", "paper_figs", "runtime_arms")


def run_repetitions(workload: Any, work_root: Path, seconds: float,
                    min_reps: int, span=no_span) -> List[Rep]:
    """Repeat the workload until ``seconds`` have passed.

    Each repetition gets an empty work directory (removed afterwards, also
    when the repetition raises) and starts from a collected heap.  A
    repetition whose digests differ from the first one's failed determinism.
    """
    reps: List[Rep] = []
    started = perf_counter()
    while len(reps) < min_reps or perf_counter() - started < seconds:
        work_dir = work_root / f"rep-{len(reps)}"
        work_dir.mkdir(parents=True)
        gc.collect()
        ctx = RepContext(work_dir, span)
        try:
            with span("repetition", index=len(reps)):
                rep = workload.repetition(ctx)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
        if reps and rep.digests != reps[0].digests:
            differing = sum(1 for a, b in zip(rep.digests, reps[0].digests)
                            if a != b)
            differing += abs(len(rep.digests) - len(reps[0].digests))
            rep.failures.extend(
                ["digest differs from the first repetition's"] * differing)
        rep.kernel_s = ctx.kernel_s
        reps.append(rep)
    return reps
