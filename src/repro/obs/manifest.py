"""Run manifests: JSON provenance records for every sweep-scale run.

When ``REPRO_RUN_DIR`` names a directory, two call sites write one manifest
each there: :func:`repro.experiments.runner.run_seed_grid` (kind ``figure``:
every figure entry point, ``run_cellular_sweep`` and every ``metro_pack``
city) and a fuzz campaign (kind ``fuzz``).  The in-process figures (2, 3, 4)
write none.  A manifest is enough to answer, months later, *what exactly
produced this number*: the git SHA, the cache's code-version salt, the
``REPRO_*`` variables set and the configuration the executor resolved
(``executor.config``), the seed list and job labels, per-job timings (worker
pid, queue wait), the executor's cache statistics and — when
``REPRO_TELEMETRY=1`` — the merged simulation counters.

:func:`provenance` is the deterministic core of a manifest (no timestamps,
no timings): fuzz campaign reports embed it verbatim so a failing corpus
entry records the exact knob/seed environment that produced it without
breaking the campaign's byte-identical-report contract.

Manifests are side-band output: nothing in the repository reads them back at
run time, so schema growth is cheap.  ``tools/export_trace.py`` renders the
``executor.jobs`` timings as a ``chrome://tracing`` per-worker timeline.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.config import environment_knobs, resolve

#: Manifest schema version (bump on incompatible layout changes).  2:
#: ``metrics`` holds simulation ``counters`` only.
MANIFEST_SCHEMA = 2


def run_dir() -> Optional[Path]:
    """``REPRO_RUN_DIR``, read live; None (unset) disables manifests."""
    return resolve("run_dir")


def in_run_dir(out: Path) -> Path:
    """``out``, with a bare filename routed into the run directory if set."""
    directory = run_dir()
    if directory is None or out.parent != Path("."):
        return out
    directory.mkdir(parents=True, exist_ok=True)
    return directory / out


_GIT_SHA_CACHE: List[Optional[str]] = []


def git_sha() -> Optional[str]:
    """The repository HEAD commit, or None outside a git checkout.

    Memoized per process — HEAD cannot move under a running sweep, and fuzz
    campaigns call :func:`provenance` once per report.
    """
    if _GIT_SHA_CACHE:
        return _GIT_SHA_CACHE[0]
    sha = _read_git_sha()
    _GIT_SHA_CACHE.append(sha)
    return sha


def _read_git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent, capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def provenance() -> Dict[str, Any]:
    """The deterministic provenance record shared by every manifest.

    Contains no timestamps or timings, so two runs from the same checkout
    with the same environment produce byte-identical provenance — the
    property fuzz reports rely on when they embed it.
    """
    from repro.runtime.cache import CODE_VERSION_SALT  # late: import cycle

    return {
        "schema": MANIFEST_SCHEMA,
        "git_sha": git_sha(),
        "code_version_salt": CODE_VERSION_SALT,
        "knobs": environment_knobs(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def executor_record(executor: Any) -> Dict[str, Any]:
    """JSON-able view of an executor's last run (stats + per-job timings).

    Runs that retried, timed out or lost a worker add their bookkeeping:
    retry/timeout/crash counters plus the full per-job failure histories, so
    a manifest answers *which cells were retried and why* months later and
    ``tools/export_trace.py`` can render retried attempts as separate spans.
    """
    stats = executor.last_stats
    record = {
        "total": stats.total,
        "cache_hits": stats.cache_hits,
        "cache_corrupt": stats.cache_corrupt,
        "executed": stats.executed,
        "workers": stats.workers,
        "wall_seconds": stats.wall_seconds,
        "pool_reused": stats.pool_reused,
        "jobs": list(stats.job_records),
        "config": executor.config.to_jsonable(),
    }
    for name in ("retries", "timeouts", "worker_crashes", "failed_jobs",
                 "cache_evictions", "cache_write_errors", "journal_hits"):
        if getattr(stats, name):
            record[name] = getattr(stats, name)
    if stats.failures:
        record["failures"] = list(stats.failures)
    return record


def build_manifest(kind: str, *, spec: Optional[Dict[str, Any]] = None,
                   executor: Any = None,
                   extra: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Assemble a full manifest dict (provenance + run-specific sections)."""
    from repro.obs.metrics import enabled, registry

    manifest = provenance()
    manifest["kind"] = kind
    manifest["created_unix"] = time.time()
    if spec is not None:
        manifest["spec"] = spec
    if executor is not None:
        manifest["executor"] = executor_record(executor)
    manifest["metrics"] = registry().snapshot() if enabled() else None
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(manifest: Dict[str, Any],
                   directory: Optional[Path] = None) -> Optional[Path]:
    """Write ``manifest`` as JSON into the run directory; returns the path.

    ``directory`` defaults to ``REPRO_RUN_DIR``; when neither is set the
    manifest is dropped and None returned.  Filenames embed a monotonic
    nanosecond timestamp plus the pid, so concurrent writers never collide.
    """
    directory = directory if directory is not None else run_dir()
    if directory is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    name = (f"{manifest.get('kind', 'run')}-{time.time_ns()}"
            f"-{os.getpid()}.json")
    path = directory / name
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    return path
