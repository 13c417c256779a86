"""Vectorised rate estimation for the ABC/cellular router.

The ABC router records one ``(timestamp, bytes)`` sample per packet and
queries the sliding-window rate once per departing packet (Eq. 2's ``cr(t)``
denominator).  The deque-based
:class:`repro.simulator.estimators.WindowedRateEstimator` expires samples
element by element on every ``add``; at the router's call rate that walk is
the estimator's whole cost.

:class:`VectorRateEstimator` makes the write path two plain Python list
appends (``_times``/``_sizes``) plus an integer ``_total`` — simple enough
for the router to inline at its per-packet append site — defers all expiry to
the query, and **folds** the list tail into flat numpy arrays once it reaches
:attr:`VectorRateEstimator._FOLD` samples (roughly one fold per measurement
interval at the router's packet rates).  After a fold, window expiry over the
folded region is a single ``searchsorted`` plus one prefix-sum difference
instead of a Python loop, and the expired prefix is trimmed wholesale.
Expiry happens only inside :meth:`VectorRateEstimator.rate_bps`, so an
estimator must be read to stay bounded: feed one only where its rate is used.

Bit-for-bit contract
--------------------
The returned rate is **bit-identical** to ``WindowedRateEstimator``'s for any
time-ordered interleaving of ``add``/``rate_bps`` calls:

* byte accounting is integer arithmetic end to end — the prefix-sum
  difference over ``int64`` equals the sequential Python additions exactly;
* ``searchsorted(..., side="left")`` stops at the first sample with
  ``time >= cutoff``, exactly where the deque's ``while samples[0][0] <
  cutoff`` walk stops;
* the span is ``min(window, max(now - first, 0))`` with the zero-span
  fallback to the full window, spelled as comparisons.

``tests/test_vector_estimator.py`` pins the equivalence differentially.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


class VectorRateEstimator:
    """Numpy-folded drop-in for :class:`WindowedRateEstimator`.

    Samples append to plain list tails (``_times``/``_sizes``) with no
    per-add expiry; :meth:`rate_bps` folds a long-enough tail
    into sorted ``float64``/prefix-sum ``int64`` arrays and thereafter
    expires whole spans of samples per query with C-level ``searchsorted``.
    The head timestamp of the live folded region is cached as a Python float
    (``_fhead``) so the common "nothing to expire" query never touches a
    numpy scalar.
    """

    __slots__ = ("window", "_times", "_sizes", "_total", "_expired",
                 "_tstart", "_first_sample_time",
                 "_ftimes", "_fcum", "_fstart", "_fhead", "folds")

    #: Fold the list tail into the numpy arrays once it holds this many
    #: samples.  At the ABC router's per-packet sample rate this is on the
    #: order of one fold per measurement interval; between folds the write
    #: path is two list appends and an integer add.
    _FOLD = 128

    def __init__(self, window: float = 0.04):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._times: list[float] = []
        self._sizes: list[int] = []
        self._total = 0
        self._expired = 0
        self._tstart = 0  # expiry index inside the tail lists
        self._first_sample_time: Optional[float] = None
        self._ftimes: Optional[np.ndarray] = None  # folded timestamps
        self._fcum: Optional[np.ndarray] = None    # folded byte prefix sums
        self._fstart = 0                           # live start in _ftimes
        self._fhead: Optional[float] = None        # _ftimes[_fstart] or None
        self.folds = 0

    def add(self, now: float, size_bytes: int) -> None:
        """Record ``size_bytes`` observed at time ``now`` (O(1), no expiry)."""
        if self._first_sample_time is None:
            self._first_sample_time = now
        self._times.append(now)
        self._sizes.append(size_bytes)
        self._total += size_bytes

    def _fold(self) -> None:
        """Move the tail lists into the folded arrays (expired prefix first
        trimmed from both representations)."""
        times = self._times
        sizes = self._sizes
        tstart = self._tstart
        if tstart:
            del times[:tstart]
            del sizes[:tstart]
            self._tstart = 0
        if not times:
            return
        new_times = np.asarray(times, dtype=np.float64)
        # Prefix sums over int64 are exact for any realistic byte volume
        # (~9e18 byte headroom), so the expiry arithmetic below reproduces
        # the scalar estimator's Python-int additions bit for bit.
        new_cum = np.concatenate(
            (np.zeros(1, dtype=np.int64),
             np.cumsum(np.asarray(sizes, dtype=np.int64))))
        ftimes = self._ftimes
        fstart = self._fstart
        if ftimes is None or fstart == len(ftimes):
            self._ftimes = new_times
            self._fcum = new_cum
        else:
            fcum = self._fcum
            live_cum = fcum[fstart:] - fcum[fstart]
            self._ftimes = np.concatenate((ftimes[fstart:], new_times))
            self._fcum = np.concatenate((live_cum,
                                         new_cum[1:] + live_cum[-1]))
        self._fstart = 0
        self._fhead = float(self._ftimes[0])
        times.clear()
        sizes.clear()
        self.folds += 1

    def rate_bps(self, now: float) -> float:
        """Current rate estimate in bits per second (0.0 with no samples)."""
        cutoff = now - self.window
        if len(self._times) >= self._FOLD:
            self._fold()
        fhead = self._fhead
        if fhead is not None and fhead < cutoff:
            ftimes = self._ftimes
            # side="left": first index with ftimes[i] >= cutoff — exactly
            # where the scalar `while times[i] < cutoff` walk stops.
            new = int(ftimes.searchsorted(cutoff, side="left"))
            fstart = self._fstart
            if new > fstart:
                self._expired += int(self._fcum[new] - self._fcum[fstart])
                self._fstart = new
            if new < len(ftimes):
                fhead = float(ftimes[new])
                self._fhead = fhead
            else:
                fhead = None
                self._fhead = None
        if fhead is None:
            # Folded region empty or fully expired: expire the tail with a
            # scalar walk.
            times = self._times
            start = self._tstart
            n = len(times)
            if start < n and times[start] < cutoff:
                sizes = self._sizes
                expired = self._expired
                while start < n and times[start] < cutoff:
                    expired += sizes[start]
                    start += 1
                self._expired = expired
                self._tstart = start
            live = start < n
        else:
            live = True
        first = self._first_sample_time
        if not live or first is None:
            return 0.0
        span = now - first
        window = self.window
        if span > window:
            span = window
        elif span <= 0.0:
            span = window
        return (self._total - self._expired) * 8.0 / span

    def reset(self) -> None:
        self._times.clear()
        self._sizes.clear()
        self._total = 0
        self._expired = 0
        self._tstart = 0
        self._first_sample_time = None
        self._ftimes = None
        self._fcum = None
        self._fstart = 0
        self._fhead = None
