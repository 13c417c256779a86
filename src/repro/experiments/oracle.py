"""PK-ABC: perfect knowledge of future capacity (§6.6).

PK-ABC computes the target rate from the link rate expected one RTT in the
future instead of the current estimate.  The paper reports that on the Verizon
uplink trace PK-ABC reduces 95th-percentile per-packet delay from 97 ms to
28 ms at the same ≈90 % utilisation — i.e. most of ABC's residual delay comes
from reacting to capacity drops one RTT late, not from the control law itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cellular.synthetic import uplink_downlink_pair
from repro.cellular.trace import CellularTrace
from repro.experiments.runner import run_single_bottleneck


@dataclass
class OracleComparison:
    abc_utilization: float
    pk_utilization: float
    abc_queuing_p95_ms: float
    pk_queuing_p95_ms: float
    abc_delay_p95_ms: float
    pk_delay_p95_ms: float


def pk_abc_comparison(duration: float = 30.0, rtt: float = 0.1, seed: int = 11,
                      trace: Optional[CellularTrace] = None) -> OracleComparison:
    """Run ABC and PK-ABC on the same uplink trace and compare delays."""
    if trace is None:
        trace, _ = uplink_downlink_pair(duration=duration, seed=seed)
    abc = run_single_bottleneck("abc", trace, rtt=rtt, duration=duration)
    pk = run_single_bottleneck("pk-abc", trace, rtt=rtt, duration=duration)
    return OracleComparison(
        abc_utilization=abc.utilization,
        pk_utilization=pk.utilization,
        abc_queuing_p95_ms=abc.queuing_p95_ms,
        pk_queuing_p95_ms=pk.queuing_p95_ms,
        abc_delay_p95_ms=abc.delay_p95_ms,
        pk_delay_p95_ms=pk.delay_p95_ms,
    )
