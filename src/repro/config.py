"""Runtime configuration: every ``REPRO_*`` knob, declared once.

The fields of :class:`RuntimeConfig` *are* the knob table: each carries its
environment variable, parser, default and one-line doc as field metadata
(README's table is checked against them row for row).  This is the only
module under ``src/`` that touches the process environment, and
:func:`resolve` is the one statement of the rule: an API argument beats the
environment beats the default, all through the field's parser; an empty or
whitespace-only value means *unset*.

:class:`~repro.runtime.executor.SweepExecutor` resolves the whole table once,
at construction, as ``executor.config``; the run manifest records it.  What
has no executor to hang off is a single-field live read through
:func:`resolve`: ``REPRO_TELEMETRY``, ``REPRO_RUN_DIR`` and ``REPRO_SEEDS``
in ``run_seed_grid``.
"""

from __future__ import annotations

import dataclasses
import os
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Tuple, Union

_TRUTHY = ("1", "true", "yes", "on")
_FALSY = ("0", "false", "no", "off")


def _number(kind: type, zero: Any, value: Any) -> Any:
    """The one bounded-number parser: a non-negative ``kind``; 0 → ``zero``."""
    try:
        number = kind(value)
    except (TypeError, ValueError):
        number = -1
    if not number >= 0:
        raise ValueError(
            f"must be a non-negative {kind.__name__}, got {value!r}")
    return number or zero


def _jobs(value: Any) -> int:
    return _number(int, os.cpu_count() or 1,
                   0 if str(value).lower() == "auto" else value)


def _seeds(value: Any) -> Tuple[int, ...]:
    if isinstance(value, str):
        value = value.replace(",", " ").split()
    try:
        seeds = (value,) if isinstance(value, int) else tuple(map(int, value))
    except (TypeError, ValueError):
        raise ValueError(f"must be comma- or space-separated integers, "
                         f"got {value!r}") from None
    if not seeds:
        raise ValueError("must name at least one seed")
    for index, seed in enumerate(seeds):
        if seed in seeds[:index]:
            raise ValueError(f"names seed {seed} twice")
    return seeds


def _policy(value: Any) -> str:
    if str(value).lower() not in ("strict", "salvage"):
        raise ValueError(f"must be 'strict' or 'salvage', got {value!r}")
    return str(value).lower()


def _path(value: Any) -> Path:
    return Path(value).expanduser()


def _flag(value: Any) -> bool:
    return str(value).lower() in _TRUTHY


def _progress(value: Any) -> Union[bool, Callable]:
    if not isinstance(value, (bool, str)) and not callable(value):
        raise TypeError(f"must be a bool or a callable, got {value!r}")
    return value if callable(value) else _flag(value)


def _journal(value: Any) -> Union[None, bool, Path]:
    """Off (``None``), on beside the run manifests (``True``), or a path."""
    word = str(value).lower() if isinstance(value, (bool, str)) else None
    if word in _TRUTHY + _FALSY:
        return word in _TRUTHY or None
    return _path(value)


def _knob(env: str, parse: Callable, default: Any, doc: str) -> Any:
    return dataclasses.field(
        default=default, metadata={"env": env, "parse": parse, "doc": doc})


@dataclasses.dataclass(frozen=True)
class RuntimeConfig:
    """How a sweep runs: one field per ``REPRO_*`` knob, resolved."""

    jobs: int = _knob("REPRO_JOBS", _jobs, 1,
                      "worker processes; 0 / 'auto' = one per CPU")
    seeds: Optional[Tuple[int, ...]] = _knob(
        "REPRO_SEEDS", _seeds, None,
        "seed list of a multi-seed sweep; unset = the legacy single seed")
    timeout: Optional[float] = _knob(
        "REPRO_JOB_TIMEOUT", partial(_number, float, None), None,
        "per-job wall-clock deadline in seconds; unset / 0 = none")
    retries: int = _knob("REPRO_JOB_RETRIES", partial(_number, int, 0), 0,
                         "retry budget per job")
    failure_policy: str = _knob(
        "REPRO_FAILURE_POLICY", _policy, "strict",
        "retries exhausted: 'strict' raises, 'salvage' returns JobFailures")
    cache_dir: Optional[Path] = _knob(
        "REPRO_CACHE_DIR", _path, None,
        "on-disk result cache directory; unset = no cache")
    journal: Union[None, bool, Path] = _knob(
        "REPRO_JOURNAL", _journal, None,
        "resume journal: a directory, or truthy = <run dir>/journal")
    progress: Union[bool, Callable] = _knob(
        "REPRO_PROGRESS", _progress, False,
        "live stderr progress line (as an argument, also a callback)")
    telemetry: bool = _knob("REPRO_TELEMETRY", _flag, False,
                            "process-local metrics registry on")
    run_dir: Optional[Path] = _knob(
        "REPRO_RUN_DIR", _path, None,
        "directory for run manifests, traces and default journals")

    @classmethod
    def from_env(cls) -> "RuntimeConfig":
        """Every knob as the environment (else its default) has it."""
        return cls(**{name: resolve(name) for name in KNOBS})

    def overlay(self, **arguments: Any) -> "RuntimeConfig":
        """A copy with each non-``None`` API argument, parsed, in place."""
        changes = {name: _parse(KNOBS[name], value)
                   for name, value in arguments.items() if value is not None}
        if changes.get("journal") is True and self.journal is not None:
            del changes["journal"]  # "on" keeps a directory the env named
        return dataclasses.replace(self, **changes)

    @property
    def journal_dir(self) -> Optional[Path]:
        """Where this configuration journals (``None`` = journaling off)."""
        if self.journal is not True:
            return self.journal
        if self.run_dir is None:
            raise ValueError(
                "journaling requested but no directory available: set "
                "REPRO_JOURNAL to a path or set REPRO_RUN_DIR")
        return self.run_dir / "journal"

    def to_jsonable(self) -> Dict[str, Any]:
        """For a manifest: paths as strings, a callback as True."""
        def plain(value: Any) -> Any:
            if isinstance(value, Path):
                return str(value)
            if isinstance(value, tuple):
                return list(value)
            return True if callable(value) else value
        return {name: plain(getattr(self, name)) for name in KNOBS}


#: The knob table: field name → dataclass field (``.default``, and ``env`` /
#: ``parse`` / ``doc`` under ``.metadata``).
KNOBS: Dict[str, dataclasses.Field] = {
    knob.name: knob for knob in dataclasses.fields(RuntimeConfig)}


def _parse(knob: dataclasses.Field, value: Any) -> Any:
    """One raw value (environment string or API argument) → resolved."""
    if isinstance(value, str):
        value = value.strip()
        if not value:
            return knob.default
    try:
        return knob.metadata["parse"](value)
    except (TypeError, ValueError) as exc:
        raise type(exc)(f"{knob.metadata['env']}: {exc}") from None


def resolve(name: str, argument: Any = None) -> Any:
    """One knob, read live: argument beats environment beats default."""
    knob = KNOBS[name]
    return _parse(knob, argument if argument is not None
                  else os.environ.get(knob.metadata["env"], ""))


def resolve_seeds(seeds: Union[int, Tuple[int, ...], None] = None
                  ) -> Optional[Tuple[int, ...]]:
    """``seeds=``, else ``REPRO_SEEDS``, else ``None`` (the legacy seed)."""
    return resolve("seeds", seeds)


def environment_knobs() -> Dict[str, str]:
    """Every ``REPRO_*`` variable set in the environment, raw (sorted)."""
    return {key: value for key, value in sorted(os.environ.items())
            if key.startswith("REPRO_")}
