"""Deterministic fault injection for the sweep runtime.

Chaos testing a sweep only pays off when a chaos run can be *replayed*: the
same faults must hit the same cells on every run, regardless of worker count
or scheduling, so a failure found under injection is as reproducible (and as
shrinkable) as a fuzz counterexample.  This module gets that property the
same way the result cache gets content addressing — every fault decision is
a pure function of ``(spec seed, fault kind, job cache key, attempt
number)``, hashed through SHA-256 into a uniform draw.  No process-local RNG
state, no wall clock, no worker identity.

Fault spec
----------
``REPRO_FAULTS`` holds a comma-separated ``kind:probability`` list plus an
optional ``seed:N`` token::

    REPRO_FAULTS="worker_crash:0.02,job_hang:0.01,cache_write_fail:0.05,seed:7"

Supported kinds:

``worker_crash``
    The worker process running the attempt dies (``os._exit`` in pool
    workers; synthesized in-process for serial runs).  Exercises the
    executor's end-of-file detection, worker replacement and resubmission path.
``job_hang``
    The attempt wedges forever (the worker sleeps until killed; synthesized
    as an immediate timeout for serial runs).  Requires ``REPRO_JOB_TIMEOUT``
    — an injected hang with no timeout would hang the sweep, so resolving
    such a spec fails fast.
``job_error``
    The attempt raises :class:`FaultInjectionError` before the job body runs.
``cache_write_fail``
    The result cache's store for this key raises ``OSError`` (exercising the
    degrade-to-warning-and-miss path in :meth:`ResultCache.put`).

Faults fire *before* the job body executes, so a faulted attempt never
leaves partial simulator state or metrics behind — which is what makes the
serial and parallel failure records byte-identical
(``tests/test_runtime_faults.py`` pins this).

Failure records
---------------
After retries are exhausted the executor returns (or raises, per policy) a
:class:`JobFailure`: a frozen, picklable record of the job key, label and
every attempt (outcome, error text, traceback, deterministic backoff).  Wall
-clock timings deliberately live elsewhere (the executor's ``job_records`` /
run manifests), never in the failure record, so two chaos runs with the same
seed produce byte-identical failures.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Tuple

#: Fault kinds the injector understands (anything else is a spec error).
FAULT_KINDS = ("worker_crash", "job_hang", "job_error", "cache_write_fail")

#: Synthesized message for crashed attempts — shared by the serial
#: (synthesized) and parallel (pid-death-detected) paths so their failure
#: records match byte for byte.
CRASH_MESSAGE = "worker process died during job attempt"

#: Exit status used by injected worker crashes (visible in pool diagnostics).
CRASH_EXIT_CODE = 3


class FaultInjectionError(RuntimeError):
    """The error raised by an injected ``job_error`` fault."""


@dataclass(frozen=True)
class FaultSpec:
    """A parsed, validated fault spec: sorted (kind, probability) + seed.

    Frozen and picklable so the executor can ship it to pool workers inside
    each attempt payload.
    """

    rates: Tuple[Tuple[str, float], ...] = ()
    seed: int = 0

    @property
    def active(self) -> bool:
        return any(rate > 0.0 for _, rate in self.rates)

    def rate(self, kind: str) -> float:
        for name, rate in self.rates:
            if name == kind:
                return rate
        return 0.0

    def describe(self) -> str:
        parts = [f"{kind}:{rate:g}" for kind, rate in self.rates]
        parts.append(f"seed:{self.seed}")
        return ",".join(parts)

    @classmethod
    def parse(cls, raw: str) -> "FaultSpec":
        """Parse ``kind:prob,...[,seed:N]``; raise ``ValueError`` loudly."""
        rates: Dict[str, float] = {}
        seed = 0
        for token in raw.split(","):
            token = token.strip()
            if not token:
                continue
            name, sep, value = token.partition(":")
            name = name.strip().lower()
            if not sep:
                raise ValueError(
                    f"fault spec token {token!r} must be kind:probability "
                    f"(or seed:N)")
            if name == "seed":
                try:
                    seed = int(value)
                except ValueError as exc:
                    raise ValueError(
                        f"fault spec seed must be an integer, got "
                        f"{value!r}") from exc
                continue
            if name not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {name!r}; known kinds: "
                    f"{sorted(FAULT_KINDS)}")
            try:
                rate = float(value)
            except ValueError as exc:
                raise ValueError(
                    f"fault probability for {name!r} must be a float, "
                    f"got {value!r}") from exc
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"fault probability for {name!r} must be in "
                    f"[0, 1], got {rate}")
            if name in rates:
                raise ValueError(f"duplicate fault kind {name!r}")
            rates[name] = rate
        return cls(rates=tuple(sorted(rates.items())), seed=seed)


def _uniform_draw(seed: int, kind: str, job_key: str, attempt: int) -> float:
    """A deterministic uniform draw in [0, 1) for one fault decision.

    Independent across (kind, job_key, attempt) but identical across
    processes, platforms and reruns — SHA-256 of the coordinate string, with
    the top 8 bytes read as an unsigned integer.
    """
    payload = f"{seed}|{kind}|{job_key}|{attempt}".encode()
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class FaultInjector:
    """Stateless fault oracle over a :class:`FaultSpec`.

    Both the executor (parent side, for predictions and backoff) and the
    pool workers (attempt side, for actually firing faults) hold one; all
    decisions agree because they are pure functions of the coordinates.
    """

    spec: FaultSpec

    def should(self, kind: str, job_key: str, attempt: int) -> bool:
        rate = self.spec.rate(kind)
        if rate <= 0.0:
            return False
        return _uniform_draw(self.spec.seed, kind, job_key, attempt) < rate

    def fire_process_faults(self, job_key: str, attempt: int) -> None:
        """Fire process-level faults for this attempt (pool workers only).

        ``worker_crash`` hard-exits the process (bypassing ``finally``
        blocks, like a real segfault); ``job_hang`` wedges until the parent's
        timeout kills this worker.  Must be called before the job body so a
        faulted attempt leaves no partial state.  ``job_error`` is *not*
        fired here — it belongs inside the guarded attempt so serial and
        parallel runs capture byte-identical tracebacks.
        """
        if self.should("worker_crash", job_key, attempt):
            os._exit(CRASH_EXIT_CODE)
        if self.should("job_hang", job_key, attempt):
            import time
            while True:  # parent kills this pid at the job deadline
                time.sleep(60.0)

    def maybe_error(self, job_key: str, attempt: int) -> None:
        if self.should("job_error", job_key, attempt):
            raise FaultInjectionError(
                f"injected job_error (attempt {attempt})")


def retry_backoff(job_key: str, attempt: int, base: float,
                  seed: int = 0, cap: float = 30.0) -> float:
    """Deterministic exponential backoff with jitter, in seconds.

    ``attempt`` is the 1-based attempt that just failed; the returned delay
    precedes attempt ``attempt + 1``.  Exponential base doubling, capped,
    with a seeded jitter factor in [0.5, 1.0) drawn from the same hash
    family as the fault decisions — so the whole retry schedule is part of
    the reproducible record.
    """
    if base <= 0.0:
        return 0.0
    window = min(base * 2.0 ** (attempt - 1), cap)
    jitter = 0.5 + 0.5 * _uniform_draw(seed, "backoff", job_key, attempt)
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
    injected: bool = False
    backoff_seconds: float = 0.0

    def to_jsonable(self) -> Dict[str, Any]:
        return {
            "attempt": self.attempt,
            "outcome": self.outcome,
            "error": self.error,
            "error_type": self.error_type,
            "traceback": self.traceback,
            "injected": self.injected,
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


def crash_attempt(attempt: int, injected: bool,
                  backoff_seconds: float = 0.0) -> JobAttempt:
    """The canonical record for a crashed attempt (serial ≡ parallel)."""
    return JobAttempt(attempt=attempt, outcome="worker_crash",
                      error=CRASH_MESSAGE, error_type="WorkerCrash",
                      injected=injected, backoff_seconds=backoff_seconds)


def timeout_attempt(attempt: int, timeout: float, injected: bool,
                    backoff_seconds: float = 0.0) -> JobAttempt:
    """The canonical record for a timed-out attempt (serial ≡ parallel)."""
    return JobAttempt(attempt=attempt, outcome="timeout",
                      error=f"job attempt exceeded {timeout!r}s wall-clock "
                            f"timeout", error_type="JobTimeout",
                      injected=injected, backoff_seconds=backoff_seconds)
