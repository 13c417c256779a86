"""Failure records and the hashed retry backoff of the sweep runtime.

Chaos testing a sweep only pays off when a chaos run can be *replayed*: the
same failures must land in byte-identical records on every run, regardless
of worker count or scheduling.  So nothing here reads a wall clock, a
process-local RNG or a worker identity: the retry backoff is a pure function
of ``(job cache key, attempt number)``, hashed through SHA-256 into a
uniform draw.  Faults are injected by the caller, never by the runtime: the
tests wrap the executor's transport (``tests/chaos.py``).

Failure records
---------------
After retries are exhausted the executor returns (or raises, per policy) a
:class:`JobFailure`: a frozen, picklable record of the job key, label and
every attempt (outcome, error text, traceback, deterministic backoff).  Wall
-clock timings deliberately live elsewhere (the executor's ``job_records`` /
run manifests), never in the failure record, so two runs that fail the same
way produce byte-identical failures.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Tuple

#: Synthesized message for crashed attempts — shared by every transport so
#: serial and parallel failure records match byte for byte.
CRASH_MESSAGE = "worker process died during job attempt"


def retry_backoff(job_key: str, attempt: int, base: float,
                  cap: float = 30.0) -> float:
    """Deterministic exponential backoff with jitter, in seconds.

    ``attempt`` is the 1-based attempt that just failed; the returned delay
    precedes attempt ``attempt + 1``.  Exponential base doubling, capped,
    with a jitter factor in [0.5, 1.0) read off the SHA-256 of the
    coordinates — so the whole retry schedule is part of the reproducible
    record, identical across processes and reruns.
    """
    if base <= 0.0:
        return 0.0
    window = min(base * 2.0 ** (attempt - 1), cap)
    digest = hashlib.sha256(f"backoff|{job_key}|{attempt}".encode()).digest()
    jitter = 0.5 + 0.5 * int.from_bytes(digest[:8], "big") / 2.0 ** 64
    return window * jitter


# ---------------------------------------------------------------------------
# Failure records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class JobAttempt:
    """One attempt inside a :class:`JobFailure` history.

    ``outcome`` is ``"error"``, ``"timeout"`` or ``"worker_crash"``;
    ``backoff_seconds`` is the deterministic delay scheduled *after* this
    attempt (0 for the final one).  No wall-clock fields — see the module
    docstring's byte-identity contract.
    """

    attempt: int
    outcome: str
    error: str
    error_type: str = ""
    traceback: str = ""
    backoff_seconds: float = 0.0

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error": self.error,
            "error_type": self.error_type,
            "traceback": self.traceback,
            "backoff_seconds": self.backoff_seconds,
        }


@dataclass(frozen=True)
class JobFailure:
    """Picklable in-slot sentinel for a job whose retries were exhausted.

    Under the executor's ``salvage`` policy a sweep returns these in place
    of the failed cells' results, so 199 good cells survive one bad one;
    under ``strict`` the original exception (or a
    :class:`JobFailureError` wrapping this record) is raised instead.
    """

    key: str
    label: str
    attempts: Tuple[JobAttempt, ...] = ()

    @property
    def last(self) -> JobAttempt:
        return self.attempts[-1]

    @property
    def outcome(self) -> str:
        return self.last.outcome

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "attempts": [a.to_jsonable() for a in self.attempts],
        }

    def describe(self) -> str:
        last = self.last
        return (f"job {self.label or self.key[:12]} failed after "
                f"{len(self.attempts)} attempt(s): [{last.outcome}] "
                f"{last.error}")


class JobFailureError(RuntimeError):
    """Raised by the ``strict`` policy when no original exception survives
    (crashes and timeouts have nothing to re-raise)."""

    def __init__(self, failure: JobFailure):
        super().__init__(failure.describe())
        self.failure = failure


def is_failure(value: Any) -> bool:
    """True when a sweep slot holds a :class:`JobFailure` sentinel."""
    return isinstance(value, JobFailure)


def crash_attempt(attempt: int) -> JobAttempt:
    """The canonical record for a crashed attempt (serial ≡ parallel)."""
    return JobAttempt(attempt=attempt, outcome="worker_crash",
                      error=CRASH_MESSAGE, error_type="WorkerCrash")


def timeout_attempt(attempt: int, timeout: float) -> JobAttempt:
    """The canonical record for a timed-out attempt (serial ≡ parallel)."""
    return JobAttempt(attempt=attempt, outcome="timeout",
                      error=f"job attempt exceeded {timeout!r}s wall-clock "
                            f"timeout", error_type="JobTimeout")
