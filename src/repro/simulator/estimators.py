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
    added, ``_expired`` aged out).  Both :meth:`add` and :meth:`rate_bps`
    advance ``_start``, so an instance that is fed but never read holds at
    most one window of samples plus ``_TRIM`` dead ones.  The ABC router
    inlines both methods at its per-packet call sites
    (:meth:`repro.core.router.ABCRouterQdisc.dequeue`).
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
        self._expire(now)

    def _expire(self, now: float) -> bool:
        """Age out samples older than ``now - window``; True when a live
        sample remains."""
        cutoff = now - self.window
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
        return start < n

    def rate_bps(self, now: float) -> float:
        """Current rate estimate in bits per second (0.0 with no samples)."""
        if not self._expire(now):
            return 0.0
        # min(window, max(now - first, 0)), with an instantaneous burst of
        # samples (zero span) falling back to the full window rather than
        # reporting an infinite rate.
        span = now - self._first_sample_time
        window = self.window
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
    """Exponentially weighted moving average with optional initial value."""

    def __init__(self, alpha: float, initial: Optional[float] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.alpha = alpha
        self._value = initial

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
    seconds are evicted lazily on every update/query.
    """

    def __init__(self, window: float, mode: str = "max"):
        if mode not in ("min", "max"):
            raise ValueError("mode must be 'min' or 'max'")
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self.mode = mode
        self._samples: Deque[Tuple[float, float]] = deque()

    def _better(self, a: float, b: float) -> bool:
        return a >= b if self.mode == "max" else a <= b

    def update(self, now: float, value: float) -> float:
        samples = self._samples
        while samples and self._better(value, samples[-1][1]):
            samples.pop()
        samples.append((now, value))
        self._expire(now)
        return self.get()

    def _expire(self, now: float) -> None:
        cutoff = now - self.window
        samples = self._samples
        while samples and samples[0][0] < cutoff:
            samples.popleft()

    def get(self, default: float = 0.0) -> float:
        if not self._samples:
            return default
        return self._samples[0][1]

    def query(self, now: float, default: float = 0.0) -> float:
        self._expire(now)
        return self.get(default)


class RTTEstimator:
    """Classic SRTT/RTTVAR estimator (RFC 6298) with an RTO clamp."""

    def __init__(self, min_rto: float = 0.2, max_rto: float = 60.0):
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rtt = math.inf
        self.min_rto = min_rto
        self.max_rto = max_rto

    def update(self, sample: float) -> None:
        if sample <= 0:
            return
        self.min_rtt = min(self.min_rtt, sample)
        if self.srtt is None or self.rttvar is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample

    @property
    def rto(self) -> float:
        if self.srtt is None or self.rttvar is None:
            return 1.0
        rto = self.srtt + 4.0 * self.rttvar
        return min(max(rto, self.min_rto), self.max_rto)

    def smoothed(self, default: float = 0.1) -> float:
        return self.srtt if self.srtt is not None else default

    def minimum(self, default: float = 0.1) -> float:
        return self.min_rtt if math.isfinite(self.min_rtt) else default
