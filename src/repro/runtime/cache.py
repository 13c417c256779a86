"""Content-addressed on-disk cache for sweep cell results.

Every sweep cell (one scheme on one trace with one seed) is identified by a
*stable hash* of the job that produces it: the fully-qualified name of the
job function, a canonical encoding of its keyword arguments, and a
code-version salt.  Two processes
(or two sessions days apart) that submit the same cell therefore compute the
same key and share the cached value, and any change to the salt — or to the
arguments, including the full content of a trace — invalidates the entry.
A cellular trace is keyed by its ``cache_fingerprint()``: name, opportunity
size and the sha256 of its float64 opportunity array, so hashing one costs a
fixed number of steps however long the trace is.

Cache directory layout
----------------------
::

    <cache_dir>/
        ab/                       # first two hex chars of the key
            ab3f...9c.pkl         # pickled job result, written atomically

The value files are ordinary pickles of the job's return value (metric
dataclasses, numpy arrays, plain containers).  Writes go through a temporary
file in the same directory followed by :func:`os.replace`, so a crashed or
concurrent writer can never leave a torn entry; unreadable entries are
treated as misses and deleted lazily.

The salt defaults to :data:`CODE_VERSION_SALT` (bump it when a simulator
change intentionally alters results); a per-branch cache is a different
``REPRO_CACHE_DIR`` (or ``salt=``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import sys
import tempfile
from pathlib import Path
from typing import Any, Tuple

#: Bump whenever simulator semantics change in a way that alters metrics;
#: stale cache entries from older code versions then miss instead of lying.
#: v3: hot-path overhaul — closed-form SquareWaveRate.bits_between changes
#: utilisation denominators, and the Fig. 6/7/11/13 entry points became
#: cacheable sweep jobs.  v4: CoDel follows RFC 8289 as written, which moves
#: every ``cubic+codel`` cell.  v5: a ``CoexistenceResult`` has no weight log.
CODE_VERSION_SALT = "repro-runtime-v5"


# ---------------------------------------------------------------------------
# Stable hashing
# ---------------------------------------------------------------------------
def _canonical(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-encodable structure with a stable encoding.

    Floats are encoded via :func:`repr` (shortest round-trippable form), so
    bit-identical inputs hash identically and nothing is lost to formatting.
    Dataclasses and plain objects are encoded as (class name, field dict);
    numpy arrays as (dtype, shape, sha256 of the raw bytes).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]
    if isinstance(obj, (bytes, bytearray)):
        return ["b", hashlib.sha256(bytes(obj)).hexdigest()]
    if isinstance(obj, (list, tuple)):
        return ["l", [_canonical(item) for item in obj]]
    if isinstance(obj, (set, frozenset)):
        return ["s", sorted(json.dumps(_canonical(i), sort_keys=True) for i in obj)]
    if isinstance(obj, dict):
        return ["d", sorted((str(k), _canonical(v)) for k, v in obj.items())]
    # No numpy value can exist before numpy is imported, so the runtime
    # never imports it itself.
    np = sys.modules.get("numpy")
    if np is not None:
        if isinstance(obj, np.ndarray):
            return ["nd", str(obj.dtype), list(obj.shape),
                    hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()]
        if isinstance(obj, (np.floating, np.integer, np.bool_)):
            return _canonical(obj.item())
    # An explicit fingerprint wins over structural encoding (including for
    # dataclasses), so types like TraceRef can exclude cosmetic fields.
    fingerprint = getattr(obj, "cache_fingerprint", None)
    if callable(fingerprint):
        return ["fp", _type_name(obj), _canonical(fingerprint())]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
        return ["dc", _type_name(obj), _canonical(fields)]
    if hasattr(obj, "__dict__"):
        return ["o", _type_name(obj), _canonical(vars(obj))]
    return ["r", _type_name(obj), repr(obj)]


def _type_name(obj: Any) -> str:
    cls = type(obj)
    return f"{cls.__module__}.{cls.__qualname__}"


def stable_hash(obj: Any) -> str:
    """A sha256 hex digest of ``obj``'s canonical encoding.

    Stable across processes and Python invocations (no reliance on
    ``hash()``/``id()``), which is what makes the cache content-addressed.
    """
    encoded = json.dumps(_canonical(obj), sort_keys=True,
                         separators=(",", ":")).encode()
    return hashlib.sha256(encoded).hexdigest()


# ---------------------------------------------------------------------------
# On-disk cache
# ---------------------------------------------------------------------------
class ResultCache:
    """A content-addressed pickle store under ``root``.

    Values are looked up and stored by the hex keys produced by
    :func:`stable_hash`; the cache never inspects the values themselves.
    """

    def __init__(self, root: os.PathLike | str):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: Lifetime counts; the executor reports each run's delta.
        self.corrupt = 0
        self.write_errors = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """Return ``(hit, value)``; unreadable entries count as misses."""
        path = self._path(key)
        try:
            with path.open("rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            return False, None
        except Exception:
            # A torn, truncated or garbage entry must behave as a miss (and
            # be deleted so the recomputed value can be rewritten) — never
            # crash a sweep.  Unpickling corrupt bytes can raise nearly
            # anything (UnpicklingError, EOFError, ImportError, IndexError,
            # ValueError, ...), so the net is deliberately wide; put() going
            # through a tempfile + rename means entries are never *written*
            # torn, this guards against external truncation/corruption.
            path.unlink(missing_ok=True)
            self.corrupt += 1
            return False, None
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` atomically (tempfile + rename).

        A failed write (disk full, ``EACCES``, read-only directory) degrades
        to a warning + future miss — a sweep must never lose its computed
        results to cache-tier storage trouble.  Failures are counted in
        ``write_errors`` (surfaced as ``cache_write_errors`` in
        :class:`~repro.runtime.executor.ExecutorStats`).
        """
        try:
            path = self._path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    pickle.dump(value, handle,
                                protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError as exc:
            self.write_errors += 1
            print(f"warning: result cache write failed for {key[:12]}… "
                  f"({exc}); continuing without caching this cell",
                  file=sys.stderr)

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in self.root.glob("*/*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.pkl"))
