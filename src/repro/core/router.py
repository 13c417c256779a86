"""The ABC router: target rate (Eq. 1), accelerate fraction (Eq. 2), marking.

The router is implemented as a qdisc, mirroring the paper's Linux qdisc kernel
module (§6.1).  On every dequeued packet it:

1. measures the dequeue rate ``cr(t)`` over a sliding window of length ``T``;
2. reads the link capacity ``µ(t)``: from ``capacity_fn`` when one is set
   (the §4.1 estimator on WiFi, the dual queue's share, PK-ABC's
   look-ahead), else from the owning link;
3. computes the target rate ``tr(t) = η·µ(t) − µ(t)/δ·(x(t) − dt)+``;
4. converts it to the accelerate fraction ``f(t) = min(tr/(2·cr), 1)``;
5. marks the packet accelerate or brake through the deterministic token
   bucket of Algorithm 1, honouring the rule that accelerates may be
   downgraded to brakes but never upgraded (multi-bottleneck support).

``x(t)`` is always the standing-queue delay ``q(t)/µ(t)`` and marking is
always Algorithm 1's deterministic token bucket.  The one option,
``feedback_basis="enqueue"``, reproduces the ablation of Fig. 2, where the
fraction is computed from the enqueue rate the way prior explicit schemes
do — the resulting feedback lags capacity changes by an RTT and roughly
doubles tail queuing delay.

Optimisation changes vs the original per-packet path
----------------------------------------------------
:meth:`ABCRouterQdisc.dequeue` runs steps 1–5 as straight-line code (the
original chained the FIFO pop → estimator ``add`` → Eq. 2 and Eq. 1 methods →
capacity read → marker); marks and rates are bit-identical
(``tests/test_path_golden.py``):

* **Capacity is the link's state.**  A router without a ``capacity_fn``
  reads µ(t) off its link, one call per dequeue: a rate link answers from
  its cached ``(rate, from, until)``, a trace link counts its opportunities
  inline.  (The per-timestamp memo this replaced never hit on a forward
  link, where every dequeue has its own ``now``.)  Every other µ(t) — the
  Wi-Fi rate estimator, the dual queue's ABC share, PK-ABC's look-ahead —
  is a ``capacity_fn``, called directly.
* **One estimator, fed where it is read.**  A scalar two-pointer
  :class:`~repro.simulator.estimators.WindowedRateEstimator` receives a
  sample per dequeue (or per enqueue under ``feedback_basis="enqueue"``) and
  is read once per dequeue; both the append and the expire-and-read are
  inlined in :meth:`ABCRouterQdisc.dequeue` — running integer sums and a
  live-start index, no numpy on the per-packet path.
* **Inlined token bucket.**  Algorithm 1's add / clamp / spend on the
  already-clamped fraction, without the marker's defensive re-clamp.

The readable form of Eq. 1/2, of the brake rule and of the cr(t) window is
``tests/reference/abc_paper.py``, written from the paper; the tests hold
``last_capacity`` / ``last_queuing_delay`` / ``last_target_rate`` /
``last_fraction`` to it after every dequeue.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.marking import TokenBucketMarker
from repro.core.params import ABCParams
from repro.simulator.estimators import _TRIM, WindowedRateEstimator
from repro.simulator.packet import ACCEL, BRAKE, Packet
from repro.simulator.qdisc import Qdisc

class ABCRouterQdisc(Qdisc):
    """ABC marking router implemented as a queueing discipline."""

    name = "abc"

    def __init__(self, params: Optional[ABCParams] = None,
                 buffer_packets: int = 250,
                 capacity_fn: Optional[Callable[[float], float]] = None,
                 feedback_basis: str = "dequeue"):
        super().__init__(buffer_packets=buffer_packets)
        if feedback_basis not in ("dequeue", "enqueue"):
            raise ValueError("feedback_basis must be 'dequeue' or 'enqueue'")
        self.params = params if params is not None else ABCParams()
        self.capacity_fn = capacity_fn
        self.feedback_basis = feedback_basis

        # One windowed-rate estimator: the cr(t) of Eq. 2, fed at the site
        # ``feedback_basis`` names (every dequeue, or — the Fig. 2 ablation —
        # every admitted enqueue).
        self._rate = WindowedRateEstimator(
            window=self.params.measurement_window)
        self._rate_on_dequeue = feedback_basis == "dequeue"
        self.marker = TokenBucketMarker(token_limit=self.params.token_limit)

        # Introspection values used by tests and the feedback ablation.
        self.last_target_rate = 0.0
        self.last_fraction = 1.0
        self.last_capacity = 0.0
        self.last_queuing_delay = 0.0

    # ------------------------------------------------------------ queue ops
    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.backlog_packets >= self.buffer_packets:
            self.dropped_packets += 1
            return False
        size = packet.size
        if not self._rate_on_dequeue:
            self._rate.add(now, size)
        # FifoQdisc.enqueue, inlined.
        packet.enqueue_time = now
        self._queue.append(packet)
        self.backlog_bytes += size
        self.backlog_packets += 1
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        """Pop, measure and mark a departing packet.  Only ABC
        (accelerate-carrying) packets are eligible for marking, and marks are
        only ever downgraded (accel → brake)."""
        queue = self._queue
        if not queue:
            return None
        packet = queue.popleft()
        waited = now - packet.enqueue_time
        if waited > 0.0:
            packet.total_queuing_delay += waited
        size = packet.size
        self.backlog_bytes -= size
        self.backlog_packets -= 1

        rate = self._rate
        times = rate._times
        if self._rate_on_dequeue:
            # WindowedRateEstimator.add, inlined; the rate read below does
            # its expiry, at the same `now`.
            if rate._first_sample_time is None:
                rate._first_sample_time = now
            times.append(now)
            rate._sizes.append(size)
            rate._total += size

        # abc_paper.target_rate (Eq. 1), inlined.
        params = self.params
        # µ(t), available to ABC traffic.
        if self.capacity_fn is None:
            mu = self.link.capacity_bps(now)
        else:
            mu = self.capacity_fn(now)
        if mu < 0.0:
            mu = 0.0
        x = self.backlog_bytes * 8.0 / mu if mu > 0.0 else 0.0
        excess_delay = x - params.delay_threshold
        if excess_delay < 0.0:
            excess_delay = 0.0
        tr = params.eta * mu - (mu / params.delta) * excess_delay
        self.last_capacity = mu
        self.last_queuing_delay = x
        if tr < 0.0:
            tr = 0.0
        self.last_target_rate = tr

        # abc_paper.accel_fraction (Eq. 2), inlined, over a cr(t) read by
        # WindowedRateEstimator.rate_bps, inlined.
        window = rate.window
        cutoff = now - window
        start = rate._start
        n = len(times)
        expired = rate._expired
        if start < n and times[start] < cutoff:
            sizes = rate._sizes
            while start < n and times[start] < cutoff:
                expired += sizes[start]
                start += 1
            rate._expired = expired
            if start >= _TRIM:
                del times[:start]
                del sizes[:start]
                n -= start
                start = 0
            rate._start = start
        if start < n:
            span = now - rate._first_sample_time
            if span > window or span <= 0.0:
                span = window
            reference = (rate._total - expired) * 8.0 / span
        else:
            reference = 0.0
        if reference <= 0.0:
            fraction = 1.0
        else:
            fraction = 0.5 * tr / reference
            if fraction > 1.0:
                fraction = 1.0
        if fraction < 0.0:
            fraction = 0.0
        self.last_fraction = fraction

        # Token-bucket marking (Algorithm 1); `fraction` is already clamped
        # to [0, 1] so the marker's defensive clamp is skipped.
        marker = self.marker
        if packet.ecn is not ACCEL:
            # Brake/CE/Not-ECT packets pass through untouched (the router may
            # not upgrade), but the token bucket still advances (Algorithm 1
            # adds f(t) for every outgoing packet) so that the accelerate
            # fraction along a multi-bottleneck path is the minimum of the
            # per-router fractions rather than their product.
            token = marker.token + fraction
            limit = marker.token_limit
            marker.token = token if token <= limit else limit
            return packet
        token = marker.token + fraction
        limit = marker.token_limit
        if token > limit:
            token = limit
        if token >= 1.0:
            marker.token = token - 1.0
            marker.accel_count += 1
        else:
            marker.token = token
            marker.brake_count += 1
            # abc_paper.brake, inlined: only accelerate packets get this far.
            packet.ecn = BRAKE
            self.marked_packets += 1
        return packet
