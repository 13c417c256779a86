"""Fig. 2's trace (dequeue- vs enqueue-rate feedback) and Algorithm 1's
marking ablation.

ABC computes its accelerate fraction from the *dequeue* rate, exploiting ACK
clocking to predict the enqueue rate one RTT ahead (Eq. 2); prior explicit
schemes compare the *enqueue* rate to the link capacity.  The paper shows the
enqueue-rate variant roughly doubles the 95th-percentile queuing delay on a
varying link.  The ``abc-enqueue`` scheme (``feedback_basis="enqueue"`` on
the ABC router) reproduces that variant without touching anything else, and
Fig. 2's row in :data:`repro.experiments.figures.FIGURES` runs both on
:func:`default_feedback_trace`.
"""

from __future__ import annotations

from typing import Dict

from repro.cellular.synthetic import SyntheticTraceConfig, synthetic_trace
from repro.cellular.trace import CellularTrace


def default_feedback_trace(duration: float, seed: int) -> CellularTrace:
    """A strongly varying link (the paper's Fig. 2 experiment runs 60 s)."""
    config = SyntheticTraceConfig(
        mean_rate_bps=10e6, min_rate_bps=1e6, max_rate_bps=25e6,
        volatility=0.30, outage_rate_per_s=0.0, name="feedback-ablation")
    return synthetic_trace(config, duration, seed=seed)


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
