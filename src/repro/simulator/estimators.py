"""Small measurement utilities shared by routers and congestion controllers.

The ABC router measures its dequeue rate ``cr(t)`` and link capacity ``µ(t)``
over a sliding time window of length ``T`` (§3.1.2); XCPw, RCP and VCP need
the same primitive for their input-rate measurements, and several end-to-end
schemes (BBR, Sprout, Verus) need windowed-max / EWMA filters.  They all live
here so the implementations stay consistent and well tested.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Deque, Optional, Tuple


#: Dead samples tolerated in front of a :class:`WindowedRateEstimator`'s live
#: window before the prefix is cut off with one ``del lst[:start]``.
_TRIM = 128


class WindowedRateEstimator:
    """Rate estimate over a sliding time window.

    Samples are ``(timestamp, bytes)`` pairs; :meth:`rate_bps` returns the
    byte count observed in the trailing ``window`` seconds converted to bits
    per second.  When fewer than ``window`` seconds of history exist the
    elapsed time since the first sample is used instead, which avoids the
    start-up bias of dividing by the full window.

    Nothing is ever re-derived: samples sit in parallel ``_times`` /
    ``_sizes`` lists, ``_start`` indexes the oldest live one, and the window's
    byte count is the difference of two running integer sums (``_total``
    added, ``_expired`` aged out).  :meth:`rate_bps` advances ``_start`` and
    :meth:`add` reads it, so an instance that is fed but never read holds at
    most one window of samples plus ``_TRIM`` dead ones.  The ABC router
    and BBR inline both methods at their per-packet call sites
    (:meth:`repro.core.router.ABCRouterQdisc.dequeue`,
    :meth:`repro.cc.bbr.BBR.on_ack`).
    """

    __slots__ = ("window", "_times", "_sizes", "_start", "_total", "_expired",
                 "_first_sample_time")

    def __init__(self, window: float = 0.04):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._times: list[float] = []
        self._sizes: list[int] = []
        self._start = 0
        self._total = 0
        self._expired = 0
        self._first_sample_time: Optional[float] = None

    def add(self, now: float, size_bytes: int) -> None:
        """Record ``size_bytes`` observed at time ``now``."""
        if self._first_sample_time is None:
            self._first_sample_time = now
        self._times.append(now)
        self._sizes.append(size_bytes)
        self._total += size_bytes
        self.rate_bps(now)              # ages out samples the window left

    def rate_bps(self, now: float) -> float:
        """Current rate estimate in bits per second (0.0 with no samples),
        after aging out the samples older than ``now - window``."""
        window = self.window
        cutoff = now - window
        times = self._times
        start = self._start
        n = len(times)
        if start < n and times[start] < cutoff:
            sizes = self._sizes
            expired = self._expired
            while start < n and times[start] < cutoff:
                expired += sizes[start]
                start += 1
            self._expired = expired
            if start >= _TRIM:
                del times[:start]
                del sizes[:start]
                n -= start
                start = 0
            self._start = start
        if start >= n:
            return 0.0
        # min(window, max(now - first, 0)), with an instantaneous burst of
        # samples (zero span) falling back to the full window rather than
        # reporting an infinite rate.
        span = now - self._first_sample_time
        if span > window or span <= 0.0:
            span = window
        return (self._total - self._expired) * 8.0 / span

    def reset(self) -> None:
        self._times.clear()
        self._sizes.clear()
        self._start = 0
        self._total = 0
        self._expired = 0
        self._first_sample_time = None


class EWMA:
    """Exponentially weighted moving average, seeded by its first sample."""

    def __init__(self, alpha: float):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value: Optional[float] = None

    def update(self, sample: float) -> float:
        if self._value is None:
            self._value = sample
        else:
            self._value = self.alpha * sample + (1.0 - self.alpha) * self._value
        return self._value

    @property
    def value(self) -> Optional[float]:
        return self._value

    def get(self, default: float = 0.0) -> float:
        return self._value if self._value is not None else default


class WindowedMinMax:
    """Windowed minimum or maximum (monotonic deque), used by BBR and Copa.

    ``mode`` is either ``"min"`` or ``"max"``; samples older than ``window``
    seconds are evicted lazily on every update/query.  ``best`` publishes the
    extremum (``None`` while the deque is empty): :meth:`update` and
    :meth:`query`, the only methods that change the deque, refresh it, so BBR
    reads the attribute instead of calling :meth:`get` (and inlines
    :meth:`update`, keeping that refresh).
    """

    def __init__(self, window: float, mode: str = "max"):
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.best: Optional[float] = None
        self._max = mode == "max"
        self._samples: Deque[Tuple[float, float]] = deque()

    def update(self, now: float, value: float) -> float:
        samples = self._samples
        if self._max:
            while samples and value >= samples[-1][1]:
                samples.pop()
        else:
            while samples and value <= samples[-1][1]:
                samples.pop()
        samples.append((now, value))
        # WindowedMinMax.query, inlined (the sample just appended is
        # live, so the deque does not empty).
        cutoff = now - self.window
        while samples[0][0] < cutoff:
            samples.popleft()
        best = self.best = samples[0][1]
        return best

    def get(self, default: float = 0.0) -> float:
        best = self.best
        return default if best is None else best

    def query(self, now: float, default: float = 0.0) -> float:
        cutoff = now - self.window
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()
        best = self.best = samples[0][1] if samples else None
        return default if best is None else best


#: The RTO clamp (s).  RFC 6298 §2.4's floor is 1 s; 0.2 s is Linux's.
MIN_RTO = 0.2
MAX_RTO = 60.0


class RTTEstimator:
    """A sender's RTT record: RFC 6298's SRTT and RTTVAR, and the smallest
    sample.  :meth:`repro.simulator.endpoints.Sender.receive` updates it and
    ``Sender._rto_deadline`` reads it (``tests/reference/rfc6298.py`` is
    the RFC they are checked against)."""

    def __init__(self):
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rtt = math.inf
