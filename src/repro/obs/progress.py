"""Sweep progress reporting: a live stderr line or a user callback.

Long metro sweeps and fuzz campaigns run for minutes with no output; with
``REPRO_PROGRESS=1`` (or an explicit ``progress=`` callback on
:class:`~repro.runtime.executor.SweepExecutor`) the executor reports after
every completed cell::

    sweep  37/200 (18%)  cache 12% | 2.1 cells/s | ETA 78s

The reporter sits entirely outside the job hot path — one callback per
*completed job*, never per event — so it costs nothing at simulation scale.
The ETA extrapolates the mean wall time of the cells executed so far over
the cells still pending (cache hits are free and counted done up front).
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class SweepProgress:
    """One progress observation, passed to the reporter after each cell."""

    done: int                 #: cells finished (cache hits + executed)
    total: int                #: cells in this run() call
    executed: int             #: cells actually simulated so far
    cache_hits: int           #: cells served from the result cache
    elapsed_seconds: float    #: wall time since run() started
    eta_seconds: Optional[float]  #: None until at least one cell executed
    label: str = ""           #: label of the most recently finished job

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.done if self.done else 0.0


ProgressCallback = Callable[[SweepProgress], None]


def stderr_reporter(progress: SweepProgress) -> None:
    """Default reporter: one self-overwriting stderr line per completion."""
    pct = 100.0 * progress.done / progress.total if progress.total else 100.0
    rate = (progress.executed / progress.elapsed_seconds
            if progress.elapsed_seconds > 0 else 0.0)
    eta = ("--" if progress.eta_seconds is None
           else f"{progress.eta_seconds:.0f}s")
    line = (f"sweep {progress.done:>4}/{progress.total} ({pct:3.0f}%)  "
            f"cache {progress.cache_hit_rate * 100.0:3.0f}% | "
            f"{rate:5.1f} cells/s | ETA {eta}")
    end = "\n" if progress.done >= progress.total else "\r"
    print(line, end=end, file=sys.stderr, flush=True)


class ProgressTracker:
    """Bookkeeping between the executor's loop and a reporter callback."""

    def __init__(self, total: int, cache_hits: int,
                 callback: ProgressCallback):
        self._callback = callback
        self._total = total
        self._hits = cache_hits
        self._executed = 0
        self._started = time.perf_counter()
        if total:
            self._emit("")  # cache hits are done before anything runs

    def job_done(self, label: str = "") -> None:
        self._executed += 1
        self._emit(label)

    def _emit(self, label: str) -> None:
        elapsed = time.perf_counter() - self._started
        done = self._hits + self._executed
        remaining = self._total - done
        eta = (elapsed / self._executed * remaining
               if self._executed else None)
        self._callback(SweepProgress(
            done=done, total=self._total, executed=self._executed,
            cache_hits=self._hits, elapsed_seconds=elapsed,
            eta_seconds=eta, label=label))


def resolve_progress(progress) -> Optional[ProgressCallback]:
    """The resolved ``progress`` knob (a bool or a callable) as a callback."""
    return stderr_reporter if progress is True else (progress or None)
