"""Packet marking: Algorithm 1's deterministic token bucket.

The router computes an accelerate fraction ``f(t)`` for every outgoing packet
(Eq. 2) and must ensure that no more than that fraction of packets carry an
accelerate mark.  The paper uses a deterministic token bucket (Algorithm 1) to
avoid the burstiness of probabilistic marking.  The ABC router always marks
with the token bucket, inlined in
:meth:`~repro.core.router.ABCRouterQdisc.dequeue`; :class:`TokenBucketMarker`
holds its counters and is its readable form.  :class:`ProbabilisticMarker`
exists only so :func:`~repro.experiments.feedback.marking_burstiness` can
measure the difference (the ``marking`` row of ``tools/reproduce.py``).
"""

from __future__ import annotations

import random


class TokenBucketMarker:
    """Deterministic accel/brake marker (Algorithm 1 of the paper).

    ``token`` is incremented by ``f(t)`` for every outgoing packet (capped at
    ``token_limit``) and decremented by one whenever a packet is marked
    accelerate; a packet can only be marked accelerate when ``token > 1``.
    Over any window of packets the accelerate fraction therefore never exceeds
    the average of the ``f(t)`` values supplied, yet the marker follows
    changes in ``f(t)`` packet-by-packet.
    """

    def __init__(self, token_limit: float = 2.0):
        if token_limit < 1.0:
            raise ValueError("token_limit must be at least 1.0")
        self.token_limit = token_limit
        self.token = 0.0
        self.accel_count = 0
        self.brake_count = 0

    def mark(self, fraction: float) -> bool:
        """Decide the marking of one outgoing packet.

        Parameters
        ----------
        fraction:
            The accelerate fraction ``f(t)`` computed for this packet, in
            ``[0, 1]``.

        Returns
        -------
        bool
            True to keep the accelerate mark, False to brake.
        """
        fraction = min(max(fraction, 0.0), 1.0)
        self.token = min(self.token + fraction, self.token_limit)
        if self.token >= 1.0:
            self.token -= 1.0
            self.accel_count += 1
            return True
        self.brake_count += 1
        return False


class ProbabilisticMarker:
    """Mark accelerate with probability ``f(t)`` (the ablation alternative).

    The paper notes this is simpler but burstier than the token bucket; the
    marking benchmark quantifies the difference in the variance of inter-mark
    gaps.
    """

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)
        self.accel_count = 0
        self.brake_count = 0

    def mark(self, fraction: float) -> bool:
        fraction = min(max(fraction, 0.0), 1.0)
        accel = self._rng.random() < fraction
        if accel:
            self.accel_count += 1
        else:
            self.brake_count += 1
        return accel
