"""The ``timeseries`` summary: one flow's binned throughput and queuing delay.

Fig. 1 runs Cubic, Verus, Cubic+CoDel and ABC over the same emulated LTE
trace, Fig. 17 runs ABC, RCP and XCPw over a square-wave link whose capacity
alternates between 12 and 24 Mbit/s every 500 ms, and the packet-level
Theorem 3.1 check runs ABC at several δ; their rows in
:data:`repro.experiments.figures.FIGURES` are single-bottleneck cells
measured by :func:`timeseries_summary`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments.runner import single_bottleneck_summary
from repro.experiments.scenario_spec import BuiltScenario


@dataclass
class TimeSeries:
    """One scheme's throughput/queuing-delay time series and its scalar
    metrics."""

    scheme: str
    times: np.ndarray
    throughput_bps: np.ndarray
    queuing_delay_ms: np.ndarray
    utilization: float = 0.0
    queuing_p95_ms: float = 0.0

    @property
    def mean_throughput_mbps(self) -> float:
        return (float(np.mean(self.throughput_bps)) / 1e6
                if self.throughput_bps.size else 0.0)


def timeseries_summary(built: BuiltScenario,
                       bin_size: float = 0.5) -> TimeSeries:
    """Run a single-bottleneck scenario and bin its flow's stats into a
    picklable :class:`TimeSeries` (the ``timeseries`` summary)."""
    result = single_bottleneck_summary(built)
    stats = built.flows[0].stats
    times, tput = stats.throughput_timeseries(bin_size=bin_size)
    qt, qd = stats.queuing_delay_timeseries(bin_size=bin_size)
    n = min(len(times), len(qt))
    return TimeSeries(
        scheme=result.scheme,
        times=times[:n],
        throughput_bps=tput[:n],
        queuing_delay_ms=qd[:n] * 1000.0,
        utilization=result.utilization,
        queuing_p95_ms=result.queuing_p95_ms,
    )
