"""Fig. 2 (dequeue- vs enqueue-rate feedback) and §6.6 (PK-ABC).

ABC computes its accelerate fraction from the *dequeue* rate, exploiting ACK
clocking to predict the enqueue rate one RTT ahead (Eq. 2); prior explicit
schemes compare the *enqueue* rate to the link capacity.  The paper shows the
enqueue-rate variant roughly doubles the 95th-percentile queuing delay on a
varying link.  ``feedback_basis="enqueue"`` on the ABC router reproduces that
variant without touching anything else.

PK-ABC targets the link rate one RTT ahead instead of the current estimate;
the paper reports it cuts p95 delay from 97 ms to 28 ms at the same ≈90 %
utilisation, so most of ABC's residual delay is reacting one RTT late.  Both
compare two ``single_bottleneck`` cells on one trace (seeds: the trace's).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cellular.synthetic import (SyntheticTraceConfig, synthetic_trace,
                                      uplink_downlink_pair)
from repro.cellular.trace import CellularTrace
from repro.experiments.runner import (SingleBottleneckResult, run_seed_grid,
                                      single_bottleneck_spec)
from repro.experiments.scenario_spec import spec_job
from repro.runtime.executor import SweepExecutor


def _on_one_trace(schemes: Sequence[str], trace: CellularTrace,
                  duration: float, seed: int, label: str,
                  executor: Optional[SweepExecutor]
                  ) -> List[SingleBottleneckResult]:
    """One ``single_bottleneck`` cell per scheme on ``trace``, in order."""
    jobs = [spec_job(single_bottleneck_spec(scheme, trace, duration=duration),
                     "single_bottleneck", f"{label}/{scheme}")
            for scheme in schemes]
    return run_seed_grid(lambda s: jobs, seed, (seed,), executor)


@dataclass
class FeedbackComparison:
    """p95 queuing delay and utilisation for both feedback bases."""

    dequeue_queuing_p95_ms: float
    enqueue_queuing_p95_ms: float
    dequeue_utilization: float
    enqueue_utilization: float

    @property
    def delay_ratio(self) -> float:
        """enqueue p95 / dequeue p95 — the paper reports ≈ 2×."""
        if self.dequeue_queuing_p95_ms <= 0:
            return float("inf")
        return self.enqueue_queuing_p95_ms / self.dequeue_queuing_p95_ms


def default_feedback_trace(duration: float = 60.0, seed: int = 21) -> CellularTrace:
    """A strongly varying link (the Fig. 2 experiment runs for 60 s)."""
    config = SyntheticTraceConfig(
        mean_rate_bps=10e6, min_rate_bps=1e6, max_rate_bps=25e6,
        volatility=0.30, outage_rate_per_s=0.0, name="feedback-ablation")
    return synthetic_trace(config, duration, seed=seed)


def fig2_feedback(duration: float = 60.0,
                  trace: Optional[CellularTrace] = None, seed: int = 21,
                  executor: Optional[SweepExecutor] = None
                  ) -> FeedbackComparison:
    """Run ABC with dequeue-based and enqueue-based feedback on one trace."""
    trace = trace if trace is not None else default_feedback_trace(duration, seed)
    dequeue, enqueue = _on_one_trace(("abc", "abc-enqueue"), trace, duration,
                                     seed, "fig2", executor)
    return FeedbackComparison(dequeue.queuing_p95_ms, enqueue.queuing_p95_ms,
                              dequeue.utilization, enqueue.utilization)


@dataclass
class OracleComparison:
    abc_utilization: float
    pk_utilization: float
    abc_queuing_p95_ms: float
    pk_queuing_p95_ms: float
    abc_delay_p95_ms: float
    pk_delay_p95_ms: float


def pk_abc_comparison(duration: float = 30.0, seed: int = 11,
                      trace: Optional[CellularTrace] = None,
                      executor: Optional[SweepExecutor] = None
                      ) -> OracleComparison:
    """Run ABC and PK-ABC on the same uplink trace and compare delays."""
    if trace is None:
        trace, _ = uplink_downlink_pair(duration=duration, seed=seed)
    abc, pk = _on_one_trace(("abc", "pk-abc"), trace, duration, seed,
                            "pk-abc", executor)
    return OracleComparison(abc.utilization, pk.utilization,
                            abc.queuing_p95_ms, pk.queuing_p95_ms,
                            abc.delay_p95_ms, pk.delay_p95_ms)


def marking_burstiness(fraction: float = 0.4, packets: int = 5000
                       ) -> Dict[str, float]:
    """Ablation: deterministic token-bucket marking vs probabilistic marking.

    Returns the variance of the gap (in packets) between consecutive
    accelerate marks for both markers at the same target fraction — the token
    bucket's gaps are near-deterministic, the probabilistic marker's are
    geometric (much larger variance), which is why Algorithm 1 uses the token
    bucket.
    """
    import numpy as np

    from repro.core.marking import ProbabilisticMarker, TokenBucketMarker

    def gaps(marker) -> list[int]:
        gap_list = []
        since_last = 0
        for _ in range(packets):
            if marker.mark(fraction):
                gap_list.append(since_last)
                since_last = 0
            else:
                since_last += 1
        return gap_list

    token_gaps = gaps(TokenBucketMarker())
    prob_gaps = gaps(ProbabilisticMarker(seed=3))
    return {
        "token_gap_variance": float(np.var(token_gaps)) if token_gaps else 0.0,
        "probabilistic_gap_variance": float(np.var(prob_gaps)) if prob_gaps else 0.0,
        "token_fraction": len(token_gaps) / packets,
        "probabilistic_fraction": len(prob_gaps) / packets,
    }
