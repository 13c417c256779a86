"""Sweep progress reporting: a live stderr line or a user callback.

Long metro sweeps and fuzz campaigns run for minutes with no output; with
``REPRO_PROGRESS=1`` (or an explicit ``progress=`` callback on
:class:`~repro.runtime.executor.SweepExecutor`) the executor reports after
every completed cell::

    sweep  37/200 (18%)  cache 12% | 2.1 cells/s | ETA 78s

The reporter sits entirely outside the job hot path — one callback per
*completed job*, never per event — so it costs nothing at simulation scale.
The executor reports once before anything runs (cache and journal hits are
free and counted done up front), then once per landed cell.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class SweepProgress:
    """One progress observation, passed to the reporter after each cell."""

    done: int                 #: cells finished (served + executed)
    total: int                #: cells in this run() call
    executed: int             #: cells landed so far (succeeded or failed)
    cache_hits: int           #: cells served from the result cache/journal
    elapsed_seconds: float    #: wall time since run() started
    eta_seconds: Optional[float]  #: None until at least one cell executed
    label: str = ""           #: label of the most recently finished job

    @classmethod
    def of(cls, total: int, served: int, executed: int, started: float,
           label: str = "") -> "SweepProgress":
        """The observation once ``executed`` cells have landed, ``served``
        having come without running; ``started`` is the run's
        ``perf_counter()`` start.  The ETA extrapolates the mean wall time
        per landed cell over the cells still pending."""
        elapsed = time.perf_counter() - started
        done = served + executed
        eta = elapsed / executed * (total - done) if executed else None
        return cls(done=done, total=total, executed=executed,
                   cache_hits=served, elapsed_seconds=elapsed,
                   eta_seconds=eta, label=label)

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


def resolve_progress(progress) -> Optional[ProgressCallback]:
    """The resolved ``progress`` knob (a bool or a callable) as a callback."""
    return stderr_reporter if progress is True else (progress or None)
