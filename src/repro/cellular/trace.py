"""Mahimahi-style cellular link traces.

A trace is an ordered list of *delivery opportunities*: timestamps at which
the link can transmit one MTU-sized (1500-byte) packet.  Mahimahi stores them
as integer milliseconds, one per line; an opportunity repeated ``n`` times on
the same millisecond means ``n`` packets can be delivered in that millisecond.
This module keeps timestamps in seconds internally.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, List, Sequence, Union

import numpy as np

from repro.simulator.packet import MTU


class CellularTrace:
    """An immutable sequence of delivery-opportunity timestamps (seconds)."""

    def __init__(self, opportunity_times: Iterable[float], name: str = "trace",
                 bytes_per_opportunity: int = MTU):
        times = sorted(float(t) for t in opportunity_times)
        if not times:
            raise ValueError("a trace needs at least one delivery opportunity")
        if times[0] < 0:
            raise ValueError("opportunity times must be non-negative")
        self._times: List[float] = times
        # Precomputed array for vectorised window lookups: the i-th prefix
        # count is ``searchsorted(_times_np, t)``, so the capacity offered
        # over a window is a cumulative-count difference instead of a scan.
        self._times_np = np.asarray(times, dtype=float)
        self.name = name
        self.bytes_per_opportunity = bytes_per_opportunity

    # ------------------------------------------------------------ basic API
    @property
    def opportunity_times(self) -> Sequence[float]:
        return tuple(self._times)

    @property
    def duration(self) -> float:
        """Trace length in seconds (timestamp of the last opportunity)."""
        return self._times[-1]

    def __len__(self) -> int:
        return len(self._times)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (f"<CellularTrace {self.name!r} {len(self)} opportunities, "
                f"{self.duration:.1f}s, mean {self.mean_rate_bps() / 1e6:.2f} Mbit/s>")

    # ------------------------------------------------------------ rates
    def mean_rate_bps(self) -> float:
        if self.duration <= 0:
            return 0.0
        return len(self._times) * self.bytes_per_opportunity * 8.0 / self.duration

    def opportunities_before(self, t: float) -> int:
        """Number of delivery opportunities with timestamp strictly below
        ``t`` (a cumulative-count lookup via ``searchsorted``)."""
        return int(np.searchsorted(self._times_np, t, side="left"))

    def bits_between(self, t0: float, t1: float) -> float:
        """Total bit-capacity the trace offers over ``[t0, t1)``.

        Closed form: the difference of two cumulative opportunity counts
        times the opportunity size — no per-opportunity iteration.
        """
        if t1 <= t0:
            return 0.0
        count = (self.opportunities_before(t1) - self.opportunities_before(t0))
        return count * self.bytes_per_opportunity * 8.0

    def rate_timeseries(self, bin_size: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
        """Binned capacity time series ``(bin_centers_s, rate_bps)``."""
        n_bins = max(int(math.ceil(self.duration / bin_size)), 1)
        idx = (self._times_np / bin_size).astype(int)
        np.minimum(idx, n_bins - 1, out=idx)
        counts = np.bincount(idx, minlength=n_bins).astype(float)
        centers = (np.arange(n_bins) + 0.5) * bin_size
        return centers, counts * self.bytes_per_opportunity * 8.0 / bin_size

    # ------------------------------------------------------------ transforms
    def scaled(self, factor: float, name: str | None = None) -> "CellularTrace":
        """Scale capacity by ``factor`` by dilating/compressing time."""
        if factor <= 0:
            raise ValueError("factor must be positive")
        return CellularTrace((t / factor for t in self._times),
                             name=name or f"{self.name}-x{factor:g}",
                             bytes_per_opportunity=self.bytes_per_opportunity)

    def truncated(self, duration: float, name: str | None = None) -> "CellularTrace":
        """Keep only opportunities within the first ``duration`` seconds."""
        kept = [t for t in self._times if t <= duration]
        if not kept:
            raise ValueError("truncation left no opportunities")
        return CellularTrace(kept, name=name or f"{self.name}-{duration:g}s",
                             bytes_per_opportunity=self.bytes_per_opportunity)

    # ------------------------------------------------------------ file I/O
    @classmethod
    def from_mahimahi_file(cls, path: Union[str, Path],
                           name: str | None = None) -> "CellularTrace":
        """Load a Mahimahi trace (integer milliseconds, one per line)."""
        path = Path(path)
        times = []
        with path.open() as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                times.append(int(line) / 1000.0)
        return cls(times, name=name or path.stem)

    @classmethod
    def from_rate_series(cls, times_s: Sequence[float], rates_bps: Sequence[float],
                         name: str = "trace",
                         bytes_per_opportunity: int = MTU) -> "CellularTrace":
        """Build a trace from a piecewise-constant rate series.

        ``times_s`` are segment start times (the final segment ends at the
        last time plus the previous segment length, or one segment length
        after it if only one segment exists).
        """
        if len(times_s) != len(rates_bps):
            raise ValueError("times and rates must have the same length")
        if not times_s:
            raise ValueError("rate series must not be empty")
        opportunities: List[float] = []
        times = list(times_s)
        if len(times) > 1:
            last_span = times[-1] - times[-2]
        else:
            last_span = 1.0
        times.append(times[-1] + last_span)
        for (start, end), rate in zip(zip(times, times[1:]), rates_bps):
            if rate <= 0 or end <= start:
                continue
            interval = bytes_per_opportunity * 8.0 / rate
            t = start
            while t < end:
                opportunities.append(t)
                t += interval
        return cls(opportunities, name=name,
                   bytes_per_opportunity=bytes_per_opportunity)
