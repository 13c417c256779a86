"""Shared helpers for the benchmark harnesses.

Every benchmark regenerates the rows/series of one paper figure or table and
prints them, so running ``pytest benchmarks/ --benchmark-only -s`` produces a
textual version of the paper's evaluation.  Simulations are deterministic, so
each benchmark runs its workload exactly once (``rounds=1``).
"""

from __future__ import annotations

import atexit
import os
from typing import Iterable, List, Mapping, Sequence

from repro.runtime import SweepExecutor, resolve_seeds


_SHARED_EXECUTOR: SweepExecutor | None = None


def sweep_executor() -> SweepExecutor:
    """The one executor every sweep benchmark shares.

    Honors ``REPRO_JOBS`` (worker count, default serial) and
    ``REPRO_CACHE_DIR`` (on-disk result cache, default disabled), so the
    recorded perf trajectory captures the parallel/cached speedups:
    ``REPRO_JOBS=4 pytest benchmarks/ --benchmark-only`` fans each sweep out
    over four workers.  The executor is a process-wide singleton opened in
    persistent-pool mode, so every benchmark module reuses the same worker
    pool instead of paying the spin-up cost per module (closed at exit).
    """
    global _SHARED_EXECUTOR
    if _SHARED_EXECUTOR is None:
        _SHARED_EXECUTOR = SweepExecutor().open()
        atexit.register(_SHARED_EXECUTOR.close)
    return _SHARED_EXECUTOR


def bench_seeds() -> tuple | None:
    """The seed list the multi-seed benchmarks run with.

    ``REPRO_SEEDS="1,2,3" pytest benchmarks/ --benchmark-only`` turns every
    routed figure sweep into a statistical sweep whose tables carry 95 % CI
    columns; unset, benchmarks reproduce the legacy single-seed point
    estimates.
    """
    return resolve_seeds(None)


def ci_columns(rows: Sequence[Mapping], columns: Sequence[str]) -> List[str]:
    """Interleave ``<col>_ci95`` companions for columns that carry them.

    Multi-seed ``sweep_averages`` rows hold a 95 % confidence half-width per
    metric; single-seed rows do not, so the printed table keeps its legacy
    shape unless seeds were requested.
    """
    rows = list(rows)
    out: List[str] = []
    for col in columns:
        out.append(col)
        if rows and f"{col}_ci95" in rows[0]:
            out.append(f"{col}_ci95")
    return out


def print_executor_stats(executor: SweepExecutor) -> None:
    stats = executor.last_stats
    print(f"  [executor] workers={stats.workers} total={stats.total} "
          f"executed={stats.executed} cache_hits={stats.cache_hits} "
          f"wall={stats.wall_seconds:.2f}s")


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)


def print_table(title: str, rows: Iterable[Mapping], columns: Sequence[str]) -> None:
    """Print rows as a fixed-width table, mirroring the paper's layout."""
    rows = list(rows)
    print(f"\n=== {title} ===")
    header = "  ".join(f"{col:>18s}" for col in columns)
    print(header)
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            if isinstance(value, float):
                cells.append(f"{value:>18.3f}")
            else:
                cells.append(f"{str(value):>18s}")
        print("  ".join(cells))


#: Durations used by the benchmark harnesses.  They are shorter than the
#: paper's runs so the whole suite completes in minutes.  README.md maps each
#: figure to its harness; benchmarks/ledger/README.md records the measured
#: ranges behind the ledger's paper-claim checks.
BENCH_DURATION = 15.0
BENCH_SCHEMES = ("abc", "xcp", "xcpw", "cubic+codel", "cubic+pie", "copa",
                 "sprout", "vegas", "verus", "bbr", "pcc", "cubic")
