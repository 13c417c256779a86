"""Per-flow delivery statistics.

The paper reports three families of metrics:

* **throughput / utilisation** — delivered bits divided by elapsed time, or by
  the capacity the link offered over the same interval (Figs. 8, 9, 16, 18);
* **per-packet delay** — the one-way delay of each delivered packet, from
  which mean and 95th-percentile values are computed (Figs. 8, 9, 15);
* **queuing delay** — the time packets spend in bottleneck queues, plotted as
  time series (Figs. 1, 2, 6, 7, 11, 13, 17).

:class:`FlowStats` captures all three per flow at the receiver.  A link's
delivered bits — the utilisation numerator — are its own departure record
(:meth:`repro.simulator.link.Link.delivered_bits`), and state that has to be
read *during* a run is sampled by :meth:`repro.simulator.scenario.Scenario.every`.

Hot-path note: :class:`FlowStats` records one sample per delivered packet, so
it sits directly on the per-packet pipeline.  Samples are appended to flat
parallel lists (one float per field) rather than wrapped in per-sample
objects; :meth:`repro.simulator.endpoints.Receiver.receive_at` is the one
writer, and the metric accessors bin and aggregate those lists with
vectorised numpy.
"""

from __future__ import annotations

import bisect
import math
from typing import List, Optional, Sequence

import numpy as np


def _bin_totals(times: Sequence[float], weights, t0: float, t1: float,
                bin_size: float, n_bins: int) -> np.ndarray:
    """Sum ``weights`` into ``n_bins`` fixed-width bins over ``[t0, t1]``.

    Mirrors the historical per-record loop exactly: samples outside
    ``[t0, t1]`` are skipped and the final bin is right-inclusive.
    """
    times = np.asarray(times, dtype=float)
    totals = np.zeros(n_bins)
    if times.size == 0:
        return totals
    keep = (times >= t0) & (times <= t1)
    idx = ((times[keep] - t0) / bin_size).astype(int)
    np.minimum(idx, n_bins - 1, out=idx)
    if weights is None:
        np.add.at(totals, idx, 1.0)
    else:
        np.add.at(totals, idx, np.asarray(weights, dtype=float)[keep])
    return totals


class FlowStats:
    """Per-flow delivery statistics collected at the receiver."""

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        self.recv_times: List[float] = []
        self.sent_times: List[float] = []
        self.sizes: List[int] = []
        self.queuing_delays: List[float] = []

    # ------------------------------------------------------------ views
    # Totals and end points are read off the sample lists, not counted per
    # packet next to them.
    def __len__(self) -> int:
        return len(self.recv_times)

    @property
    def bytes_received(self) -> int:
        return sum(self.sizes)

    @property
    def last_recv_time(self) -> Optional[float]:
        return self.recv_times[-1] if self.recv_times else None

    # ------------------------------------------------------------ metrics
    def throughput_bps(self, t0: float = 0.0, t1: Optional[float] = None) -> float:
        """Average goodput over ``[t0, t1]`` in bits per second."""
        if t1 is None:
            t1 = self.last_recv_time if self.last_recv_time is not None else t0
        if t1 <= t0:
            return 0.0
        # recv_times is nondecreasing (samples are appended at receive time),
        # so the window is a contiguous slice.
        lo = bisect.bisect_left(self.recv_times, t0)
        hi = bisect.bisect_right(self.recv_times, t1)
        total = sum(self.sizes[lo:hi])
        return total * 8.0 / (t1 - t0)

    def delays(self, kind: str = "one_way") -> np.ndarray:
        """Array of per-packet delays in seconds.

        ``kind`` is ``"one_way"`` (propagation + queuing, the paper's
        per-packet delay) or ``"queuing"`` (bottleneck queuing only).
        """
        if kind == "one_way":
            recv = np.asarray(self.recv_times, dtype=float)
            sent = np.asarray(self.sent_times, dtype=float)
            return np.maximum(recv - sent, 0.0)
        if kind == "queuing":
            return np.asarray(self.queuing_delays, dtype=float)
        raise ValueError(f"unknown delay kind: {kind!r}")

    def delay_percentile(self, pct: float, kind: str = "one_way") -> float:
        values = self.delays(kind)
        if values.size == 0:
            return 0.0
        return float(np.percentile(values, pct))

    def mean_delay(self, kind: str = "one_way") -> float:
        values = self.delays(kind)
        if values.size == 0:
            return 0.0
        return float(np.mean(values))

    def throughput_timeseries(self, bin_size: float = 0.5,
                              t0: float = 0.0,
                              t1: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
        """Binned throughput time series ``(bin_centers, rates_bps)``."""
        if not self.recv_times:
            return np.array([]), np.array([])
        if t1 is None:
            t1 = self.recv_times[-1]
        n_bins = max(int(math.ceil((t1 - t0) / bin_size)), 1)
        edges = t0 + np.arange(n_bins + 1) * bin_size
        totals = _bin_totals(self.recv_times, self.sizes, t0, t1,
                             bin_size, n_bins)
        centers = (edges[:-1] + edges[1:]) / 2.0
        return centers, totals * 8.0 / bin_size

    def queuing_delay_timeseries(self, bin_size: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
        """Binned mean queuing delay time series ``(bin_centers, delay_s)``."""
        if not self.recv_times:
            return np.array([]), np.array([])
        t_end = self.recv_times[-1]
        n_bins = max(int(math.ceil(t_end / bin_size)), 1)
        sums = _bin_totals(self.recv_times, self.queuing_delays, 0.0, t_end,
                           bin_size, n_bins)
        counts = _bin_totals(self.recv_times, None, 0.0, t_end,
                             bin_size, n_bins)
        centers = (np.arange(n_bins) + 0.5) * bin_size
        with np.errstate(invalid="ignore", divide="ignore"):
            means = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        return centers, means

