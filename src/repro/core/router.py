"""The ABC router: target rate (Eq. 1), accelerate fraction (Eq. 2), marking.

The router is implemented as a qdisc, mirroring the paper's Linux qdisc kernel
module (§6.1).  On every dequeued packet it:

1. measures the dequeue rate ``cr(t)`` over a sliding window of length ``T``;
2. reads the link capacity ``µ(t)`` (from the owning link, from a supplied
   capacity callback, or — on WiFi — from the §4.1 estimator);
3. computes the target rate ``tr(t) = η·µ(t) − µ(t)/δ·(x(t) − dt)+``;
4. converts it to the accelerate fraction ``f(t) = min(tr/(2·cr), 1)``;
5. marks the packet accelerate or brake through the deterministic token
   bucket of Algorithm 1, honouring the rule that accelerates may be
   downgraded to brakes but never upgraded (multi-bottleneck support).

Setting ``feedback_basis="enqueue"`` reproduces the ablation of Fig. 2, where
the fraction is computed from the enqueue rate the way prior explicit schemes
do — the resulting feedback lags capacity changes by an RTT and roughly
doubles tail queuing delay.

Optimisation changes vs the original per-packet path
----------------------------------------------------
:meth:`ABCRouterQdisc.dequeue` runs steps 1–5 as straight-line code (the
original chained ``_pop`` → estimator ``add`` → ``accel_fraction`` →
``target_rate`` → capacity / queuing-delay reads → marker); marks and rates
are bit-identical (``tests/test_path_golden.py``):

* **Per-timestamp capacity memo.**  All dequeues of one transmission
  opportunity share ``now``, so µ(t) is read once per timestamp when it is a
  pure function of time (stock links, no ``capacity_fn``, ``capacity_bps``
  not overridden — see :meth:`ABCRouterQdisc.attach`).
* **One estimator, fed where it is read.**  A scalar two-pointer
  :class:`~repro.simulator.estimators.WindowedRateEstimator` receives a
  sample per dequeue (or per enqueue under ``feedback_basis="enqueue"``) and
  is read once per dequeue; both the append and the expire-and-read are
  inlined in :meth:`ABCRouterQdisc.dequeue` — running integer sums and a
  live-start index, no numpy on the per-packet path.
* **Inlined token bucket.**  Algorithm 1's add / clamp / spend on the
  already-clamped fraction, without the marker's defensive re-clamp.

:meth:`ABCRouterQdisc.target_rate` and :meth:`ABCRouterQdisc.accel_fraction`
remain the readable form of Eq. 1/2, and ``tests/test_abc_core.py`` asserts
that the inlined arithmetic agrees with them after every dequeue.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.marking import ProbabilisticMarker, TokenBucketMarker
from repro.core.params import ABCParams
from repro.simulator.estimators import _TRIM, WindowedRateEstimator
from repro.simulator.packet import ACCEL, BRAKE, Packet
from repro.simulator.qdisc import Qdisc

#: Type of the optional capacity callback: ``capacity_bps = fn(now)``.
CapacityFn = Callable[[float], float]


class ABCRouterQdisc(Qdisc):
    """ABC marking router implemented as a queueing discipline."""

    name = "abc"

    def __init__(self, params: Optional[ABCParams] = None,
                 buffer_packets: int = 250,
                 capacity_fn: Optional[CapacityFn] = None,
                 feedback_basis: str = "dequeue",
                 delay_mode: str = "standing",
                 probabilistic_marking: bool = False,
                 capacity_share: float = 1.0):
        super().__init__(buffer_packets=buffer_packets)
        if feedback_basis not in ("dequeue", "enqueue"):
            raise ValueError("feedback_basis must be 'dequeue' or 'enqueue'")
        if delay_mode not in ("standing", "sojourn"):
            raise ValueError("delay_mode must be 'standing' or 'sojourn'")
        if not 0.0 < capacity_share <= 1.0:
            raise ValueError("capacity_share must be in (0, 1]")
        self.params = params if params is not None else ABCParams()
        self.capacity_fn = capacity_fn
        self.feedback_basis = feedback_basis
        self.delay_mode = delay_mode
        self.capacity_share = capacity_share

        # One windowed-rate estimator: the cr(t) of Eq. 2, fed at the site
        # ``feedback_basis`` names (every dequeue, or — the Fig. 2 ablation —
        # every admitted enqueue).
        self._rate = WindowedRateEstimator(
            window=self.params.measurement_window)
        self._rate_on_dequeue = feedback_basis == "dequeue"
        if probabilistic_marking:
            self.marker = ProbabilisticMarker()
        else:
            self.marker = TokenBucketMarker(token_limit=self.params.token_limit)
        self._token_bucket = not probabilistic_marking
        self._standing = delay_mode == "standing"
        # Per-timestamp capacity memo, enabled per link type in attach().
        self._cap_memo_time = -1.0
        self._cap_memo = 0.0
        self._cap_memoizable = False

        # Introspection values used by tests and the feedback ablation.
        self.last_target_rate = 0.0
        self.last_fraction = 1.0
        self.last_capacity = 0.0
        self.last_queuing_delay = 0.0

    # ------------------------------------------------------------ wiring
    def attach(self, link) -> None:
        super().attach(link)
        # The per-timestamp capacity memo is only sound when capacity is a
        # pure function of `now`: the two stock link models qualify, a
        # user-supplied capacity_fn (e.g. the stateful WiFi estimator) may
        # not — those keep the one-call-per-packet behaviour.  A subclass
        # overriding capacity_bps (PK-ABC's lookahead oracle) also opts out,
        # since the memoized read inlines the base method.
        from repro.simulator.link import OpportunityLink, RateLink
        self._cap_memoizable = (
            self.capacity_fn is None
            and type(link) in (OpportunityLink, RateLink)
            and type(self).capacity_bps is ABCRouterQdisc.capacity_bps)

    # ------------------------------------------------------------ measurement
    def capacity_bps(self, now: float) -> float:
        """Link capacity µ(t) available to ABC traffic."""
        if self.capacity_fn is not None:
            capacity = self.capacity_fn(now)
        elif self.link is not None:
            capacity = self.link.capacity_bps(now)
        else:
            capacity = 0.0
        return max(capacity, 0.0) * self.capacity_share

    def queuing_delay_estimate(self, now: float, capacity: float) -> float:
        """The x(t) term of Eq. (1)."""
        if self.delay_mode == "sojourn":
            return self.sojourn_time(now)
        return self.queuing_delay(now, capacity)

    # ------------------------------------------------------------ control law
    def target_rate(self, now: float, capacity: Optional[float] = None) -> float:
        """Eq. (1): ``tr(t) = η·µ(t) − µ(t)/δ·(x(t) − dt)+``, floored at 0."""
        p = self.params
        mu = self.capacity_bps(now) if capacity is None else capacity
        x = self.queuing_delay_estimate(now, mu)
        excess_delay = max(x - p.delay_threshold, 0.0)
        tr = p.eta * mu - (mu / p.delta) * excess_delay
        self.last_capacity = mu
        self.last_queuing_delay = x
        self.last_target_rate = max(tr, 0.0)
        return self.last_target_rate

    def accel_fraction(self, now: float) -> float:
        """Eq. (2): ``f(t) = min(tr(t) / (2·cr(t)), 1)``.

        With ``feedback_basis="enqueue"`` the denominator uses the enqueue
        rate instead (the Fig. 2 ablation).
        """
        tr = self.target_rate(now)
        reference = self._rate.rate_bps(now)
        if reference <= 0.0:
            # No rate measurement yet (start-up or after an idle period):
            # allow senders to ramp up by marking accelerate.
            fraction = 1.0
        else:
            fraction = min(0.5 * tr / reference, 1.0)
        self.last_fraction = max(fraction, 0.0)
        return self.last_fraction

    # ------------------------------------------------------------ queue ops
    # Per-packet pipeline, flattened: dequeue is _pop → estimator add →
    # target_rate → accel_fraction → marker in straight-line code with the
    # same arithmetic (`max`/`min` become the equivalent comparisons).
    # target_rate()/accel_fraction() above stay the readable form of
    # Eq. 1/2; tests/test_abc_core.py checks the two agree after every
    # dequeue.

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.backlog_packets >= self.buffer_packets:
            self.dropped_packets += 1
            return False
        size = packet.size
        if not self._rate_on_dequeue:
            self._rate.add(now, size)
        # Qdisc._push, inlined.
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
        packet.dequeue_time = now
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

        # target_rate (Eq. 1).  All dequeues of one transmission opportunity
        # share `now`, so the capacity lookup is memoized per timestamp when
        # capacity is a pure function of time.
        params = self.params
        if self._cap_memoizable:
            if now == self._cap_memo_time:
                mu = self._cap_memo
            else:
                mu = self.link.capacity_bps(now)
                if mu < 0.0:
                    mu = 0.0
                mu *= self.capacity_share
                self._cap_memo_time = now
                self._cap_memo = mu
        else:
            mu = self.capacity_bps(now)
        if self._standing:
            x = self.backlog_bytes * 8.0 / mu if mu > 0.0 else 0.0
        else:
            head = queue[0] if queue else None
            if head is None:
                x = 0.0
            else:
                x = now - head.enqueue_time
                if x < 0.0:
                    x = 0.0
        excess_delay = x - params.delay_threshold
        if excess_delay < 0.0:
            excess_delay = 0.0
        tr = params.eta * mu - (mu / params.delta) * excess_delay
        self.last_capacity = mu
        self.last_queuing_delay = x
        if tr < 0.0:
            tr = 0.0
        self.last_target_rate = tr

        # accel_fraction (Eq. 2).  WindowedRateEstimator.rate_bps, inlined.
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
            if self._token_bucket:
                token = marker.token + fraction
                limit = marker.token_limit
                marker.token = token if token <= limit else limit
            else:
                marker.observe(fraction)
            return packet
        if self._token_bucket:
            token = marker.token + fraction
            limit = marker.token_limit
            if token > limit:
                token = limit
            if token >= 1.0:
                marker.token = token - 1.0
                marker.accel_count += 1
                keep_accel = True
            else:
                marker.token = token
                marker.brake_count += 1
                keep_accel = False
        else:
            keep_accel = marker.mark(fraction)
        if not keep_accel:
            # apply_brake, inlined: only accelerate packets get this far.
            packet.ecn = BRAKE
            self.marked_packets += 1
        return packet

    # ------------------------------------------------------------ stats
    # Every marking decision goes through the marker, which counts it.
    @property
    def accel_marked(self) -> int:
        return self.marker.accel_count

    @property
    def brake_marked(self) -> int:
        return self.marker.brake_count

    @property
    def observed_accel_fraction(self) -> float:
        total = self.accel_marked + self.brake_marked
        return self.accel_marked / total if total else 0.0
