"""Traffic sources: what data a flow has available to send.

The paper uses three offered-load patterns:

* **backlogged** flows generated with iperf (always have data) — most
  experiments;
* **application-limited** flows that generate data at a fixed rate
  (Fig. 13, 200 flows at an aggregate 1 Mbit/s);
* **short flows** of a fixed size (10 KB) arriving as a Poisson process
  (Fig. 12).

Traffic sources are deliberately passive: the sender asks how many bytes are
available and consumes them, and may ask when more data will show up so it can
schedule a wake-up.
"""

from __future__ import annotations

import math
from typing import Optional

#: An application-limited source's byte bucket (the most it can send after
#: an idle period).
BURST_BYTES = 30_000


class TrafficSource:
    """Interface for traffic sources."""

    def bytes_available(self, now: float) -> float:
        """Bytes the application has ready to send at time ``now``."""
        raise NotImplementedError

    def consume(self, nbytes: int, now: float) -> None:
        """Mark ``nbytes`` as handed to the transport."""
        raise NotImplementedError

    def next_data_time(self, now: float) -> Optional[float]:
        """Absolute time at which more data will become available.

        ``None`` means "never" (either the source is unlimited or finished).
        """
        return None

    def finished(self, now: float) -> bool:
        """True when the application will never produce more data."""
        return False


class BackloggedSource(TrafficSource):
    """A flow that always has data to send (iperf-style)."""

    def bytes_available(self, now: float) -> float:
        return math.inf

    def consume(self, nbytes: int, now: float) -> None:
        pass


class FixedSizeSource(TrafficSource):
    """A flow carrying exactly ``total_bytes`` (the 10 KB short flows)."""

    def __init__(self, total_bytes: int):
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.total_bytes = total_bytes
        self.sent_bytes = 0

    def bytes_available(self, now: float) -> float:
        return max(self.total_bytes - self.sent_bytes, 0)

    def consume(self, nbytes: int, now: float) -> None:
        self.sent_bytes += nbytes

    def finished(self, now: float) -> bool:
        return self.sent_bytes >= self.total_bytes


class RateLimitedSource(TrafficSource):
    """Application-limited flow generating data at ``rate_bps``.

    Data accrues continuously from time 0 into a byte bucket capped at
    ``BURST_BYTES`` so an idle period cannot be followed by an unbounded
    burst.
    """

    def __init__(self, rate_bps: float):
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.rate_bps = rate_bps
        self._credit = 0.0
        self._last_update = 0.0

    def _accrue(self, now: float) -> None:
        if now > self._last_update:
            self._credit += (now - self._last_update) * self.rate_bps / 8.0
            self._credit = min(self._credit, float(BURST_BYTES))
            self._last_update = now

    def bytes_available(self, now: float) -> float:
        self._accrue(now)
        return self._credit

    def consume(self, nbytes: int, now: float) -> None:
        self._accrue(now)
        self._credit = max(self._credit - nbytes, 0.0)

    def next_data_time(self, now: float) -> Optional[float]:
        self._accrue(now)
        if self._credit >= 1.0:
            return now
        deficit_bytes = 1500 - self._credit
        return now + deficit_bytes * 8.0 / self.rate_bps


class OnOffSource(TrafficSource):
    """Backlogged during "on" intervals, silent otherwise.

    Used for the on-off Cubic cross traffic in Fig. 11.  ``schedule`` is a
    list of ``(start, stop)`` intervals during which the source is active.
    """

    def __init__(self, schedule: list[tuple[float, float]]):
        for start, stop in schedule:
            if stop <= start:
                raise ValueError("on-intervals must have stop > start")
        self.schedule = sorted(schedule)

    def _active(self, now: float) -> bool:
        return any(start <= now < stop for start, stop in self.schedule)

    def bytes_available(self, now: float) -> float:
        return math.inf if self._active(now) else 0.0

    def consume(self, nbytes: int, now: float) -> None:
        pass

    def next_data_time(self, now: float) -> Optional[float]:
        if self._active(now):
            return now
        upcoming = [start for start, _ in self.schedule if start > now]
        return min(upcoming) if upcoming else None

    def finished(self, now: float) -> bool:
        return all(stop <= now for _, stop in self.schedule)
