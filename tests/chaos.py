"""Deterministic fault injection for the sweep runtime, from outside it.

The runtime tolerates failures — deadlines, retries, dead workers, salvage /
strict, cache writes that fail — but injects none.  This module injects them
the way a caller would meet them: it wraps whatever transport
``SweepExecutor._transport`` hands the attempt loop, and puts a double
inside ``ResultCache.put``'s ``try``.  So every tolerance path that runs
under chaos is the production one.

Chaos testing only pays off when a chaos run can be *replayed*: the same
faults must hit the same cells on every run, whatever the worker count or
scheduling.  Every decision is a pure function of ``(spec seed, fault kind,
job cache key, attempt number)``, hashed through SHA-256 into a uniform
draw — no RNG state, no wall clock, no worker identity.

A spec is a comma-separated ``kind:probability`` list plus an optional
``seed:N``, e.g. ``worker_crash:0.1,job_hang:0.05,job_error:0.1,seed:7``.

``worker_crash``
    On a pool the attempt's job is swapped for one that calls ``os._exit``:
    the parent sees end of file on the worker's pipe.  In-process, a crash
    completion is synthesized.
``job_hang``
    On a pool the job is swapped for one that sleeps until the deadline
    kills its worker; in-process, a timeout completion is synthesized.
    Needs a job timeout, else a pooled hang would wedge the sweep.
``job_error``
    The job is swapped for one that raises :class:`InjectedFault`, inside
    the guarded attempt, so serial and parallel tracebacks match.
``cache_write_fail``
    ``ResultCache.put`` fails inside its ``try``, so the degrade-to-miss
    path runs.

A swapped job is a picklable module-level function, so it reaches a pool
worker under any start method.  In a test::

    with inject("job_error:0.4,seed:11") as chaos:
        results = SweepExecutor(jobs=2, retries=2).run(jobs)
    chaos.fired        # [(kind, job key, attempt), ...] in firing order

From the command line (CI's ``chaos-smoke`` job), with the executor's
other knobs from the environment::

    PYTHONPATH=src python -m tests.chaos SPEC metro
    PYTHONPATH=src python -m tests.chaos SPEC fuzz --out report.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Tuple, Union

from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor, _InProcessTransport
from repro.runtime.spec import SweepJob

KINDS = ("worker_crash", "job_hang", "job_error", "cache_write_fail")


class InjectedFault(RuntimeError):
    """What an injected ``job_error`` raises."""


def _uniform_draw(seed: int, kind: str, job_key: str, attempt: int) -> float:
    """A uniform draw in [0, 1): the top 8 bytes of the SHA-256 of the
    coordinates, identical across processes, platforms and reruns."""
    payload = f"{seed}|{kind}|{job_key}|{attempt}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass
class Chaos:
    """A parsed spec, and the log of every fault it fired."""

    rates: Dict[str, float]
    seed: int = 0
    fired: List[Tuple[str, str, int]] = field(default_factory=list,
                                              compare=False)

    @classmethod
    def parse(cls, raw: str) -> "Chaos":
        """Parse ``kind:prob,...[,seed:N]``; raise ``ValueError`` loudly."""
        rates: Dict[str, float] = {}
        seed = 0
        for token in filter(None, (t.strip() for t in raw.split(","))):
            name, sep, value = token.partition(":")
            name = name.strip().lower()
            try:
                if not sep:
                    raise ValueError("must be kind:probability (or seed:N)")
                if name == "seed":
                    seed = int(value)
                    continue
                if name not in KINDS:
                    raise ValueError(f"known kinds are {list(KINDS)}")
                if name in rates:
                    raise ValueError("names a kind twice")
                rates[name] = float(value)
                if not 0.0 <= rates[name] <= 1.0:
                    raise ValueError("probability must be in [0, 1]")
            except ValueError as exc:
                raise ValueError(f"fault spec token {token!r}: {exc}") \
                    from None
        return cls(dict(sorted(rates.items())), seed)

    def describe(self) -> str:
        return ",".join([f"{kind}:{rate:g}"
                         for kind, rate in self.rates.items()]
                        + [f"seed:{self.seed}"])

    def should(self, kind: str, job_key: str, attempt: int) -> bool:
        """Whether ``kind`` hits this attempt (pure; logs nothing)."""
        rate = self.rates.get(kind, 0.0)
        return rate > 0.0 and _uniform_draw(self.seed, kind, job_key,
                                            attempt) < rate

    def fires(self, kind: str, job_key: str, attempt: int) -> bool:
        """:meth:`should`, logging the fault to ``fired`` when it hits."""
        hit = self.should(kind, job_key, attempt)
        if hit:
            self.fired.append((kind, job_key, attempt))
        return hit


# The substitute jobs: module-level, so they pickle by reference.
def _crash() -> None:
    os._exit(3)


def _hang() -> None:
    while True:                  # the parent kills this worker at its deadline
        time.sleep(60.0)


def _error(attempt: int) -> None:
    raise InjectedFault(f"injected job_error (attempt {attempt})")


class _ChaosTransport:
    """Any executor transport, with faults fired at submission."""

    def __init__(self, inner, chaos: Chaos, salt: str):
        self.inner, self.chaos, self.salt = inner, chaos, salt
        self.capacity, self.now = inner.capacity, inner.now
        self._in_process = isinstance(inner, _InProcessTransport)
        self._synthesized = None
        if not self._in_process:
            self.abandon = inner.abandon

    def submit(self, slot: int, attempt: int, job: SweepJob):
        key, fires = job.cache_key(self.salt), self.chaos.fires
        for kind, tag, substitute in (("worker_crash", "worker_crash", _crash),
                                      ("job_hang", "timeout", _hang)):
            if fires(kind, key, attempt):
                if self._in_process:   # nothing to kill: say what happened
                    self._synthesized = (slot, {"ok": False, "outcome": tag},
                                         None, None)
                    return None
                job = SweepJob(func=substitute, label=job.label)
                break
        else:
            if fires("job_error", key, attempt):
                job = SweepJob(func=_error, kwargs={"attempt": attempt},
                               label=job.label)
        return self.inner.submit(slot, attempt, job)

    def wait(self, timeout):
        done, self._synthesized = self._synthesized, None
        return done if done is not None else self.inner.wait(timeout)


def _refuse_write(key: str) -> Path:
    raise OSError("injected cache_write_fail")


@contextmanager
def inject(spec: Union[str, Chaos]) -> Iterator[Chaos]:
    """Fire ``spec``'s faults in every sweep run while the block is open."""
    chaos = spec if isinstance(spec, Chaos) else Chaos.parse(spec)
    real_transport, real_put = SweepExecutor._transport, ResultCache.put

    def transport(executor, pending):
        if chaos.rates.get("job_hang") and executor.config.timeout is None:
            raise ValueError("job_hang faults need a job timeout "
                             "(REPRO_JOB_TIMEOUT or timeout=), else a hung "
                             "worker wedges the sweep")
        inner, reused = real_transport(executor, pending)
        return _ChaosTransport(inner, chaos, executor.salt), reused

    def put(cache, key, value):
        if not chaos.fires("cache_write_fail", key, 1):
            return real_put(cache, key, value)
        cache._path = _refuse_write      # the first call inside put's try
        try:
            real_put(cache, key, value)
        finally:
            del cache._path

    SweepExecutor._transport, ResultCache.put = transport, put
    try:
        yield chaos
    finally:
        SweepExecutor._transport, ResultCache.put = real_transport, real_put


# --------------------------------------------------------------- the CLI
#: Both scenarios run on two workers; the metro city has six 4 s cells, the
#: fuzz campaign ten scenarios and is killed after its fourth progress tick.
JOBS, CELLS, CELL_SECONDS, BUDGET, FUZZ_SEED, KILL_AFTER = 2, 6, 4.0, 10, 6, 4


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"chaos check failed: {message}")


def _metro(args) -> None:
    """A small metro city under chaos with the salvage policy: it completes,
    retries, and aggregates the surviving cells."""
    from repro.experiments.runner import run_seed_grid
    from repro.metro.aggregate import aggregate_city
    from repro.metro.spec import metro_pack

    executor = SweepExecutor(jobs=JOBS, failure_policy="salvage")
    spec = metro_pack(CELLS, duration=CELL_SECONDS)
    cells = run_seed_grid(spec.jobs_for_seed, 0, spec.seeds, executor)
    stats = executor.last_stats
    print(f"cells={stats.total} retries={stats.retries} "
          f"timeouts={stats.timeouts} crashes={stats.worker_crashes} "
          f"failed={stats.failed_jobs}")
    _check(stats.total == CELLS, f"{stats.total} cells ran")
    _check(stats.retries > 0, "no attempt was retried")
    city = aggregate_city(cells)
    print(f"aggregated cells={city['cells']} "
          f"failed_cells={city.get('failed_cells', 0)}")


class _Killer:
    """A progress callback that interrupts the sweep after ``after`` ticks
    (the first tick comes before any cell lands)."""

    def __init__(self, after: int):
        self.after, self.calls = after, 0

    def __call__(self, progress) -> None:
        self.calls += 1
        if self.calls > self.after:
            raise KeyboardInterrupt


def _fuzz(args) -> None:
    """A journaled fuzz campaign killed mid-run, then resumed through
    ``tools/fuzz_scenarios.py --resume``: the resume completes it cleanly."""
    from repro.fuzz.campaign import run_campaign

    try:
        run_campaign(budget=BUDGET, seed=FUZZ_SEED, shrink=False,
                     check_determinism=False,
                     executor=SweepExecutor(jobs=JOBS,
                                            progress=_Killer(KILL_AFTER)))
        raise SystemExit("expected the simulated kill to fire")
    except KeyboardInterrupt:
        print("campaign killed mid-run (simulated)")
    path = Path(__file__).resolve().parents[1] / "tools" / "fuzz_scenarios.py"
    module_spec = importlib.util.spec_from_file_location("fuzz_scenarios",
                                                         path)
    tool = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tool)
    tool.main(["--budget", str(BUDGET), "--jobs", str(JOBS),
               "--seed", str(FUZZ_SEED), "--no-shrink", "--no-determinism",
               "--resume", "--out", str(args.out)])
    report = json.loads(args.out.read_text())
    _check(report["clean"], json.dumps(report, sort_keys=True))
    _check(report["scenarios_run"] == BUDGET,
           f"{report['scenarios_run']} scenarios ran")
    print("resume completed the remaining scenarios cleanly")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(
        prog="python -m tests.chaos",
        description="Run a sweep scenario under deterministic faults.")
    parser.add_argument("spec", type=Chaos.parse,
                        help="kind:probability,...[,seed:N]")
    scenarios = parser.add_subparsers(dest="scenario", required=True)
    scenarios.add_parser("metro", help=_metro.__doc__)
    fuzz = scenarios.add_parser("fuzz", help=_fuzz.__doc__)
    fuzz.add_argument("--out", type=Path, required=True,
                      help="where the resumed campaign writes its report")
    args = parser.parse_args(argv)
    with inject(args.spec) as chaos:
        (_metro if args.scenario == "metro" else _fuzz)(args)
    print(f"faults fired: {len(chaos.fired)} ({chaos.describe()})")


if __name__ == "__main__":
    main(sys.argv[1:])
