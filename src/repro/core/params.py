"""ABC protocol parameters.

The defaults follow the paper's evaluation setup (§6.2): ``η = 0.98``,
``δ = 133 ms`` (for a 100 ms propagation RTT, satisfying the Theorem 3.1
stability bound ``δ > 2τ/3``), and a delay threshold ``dt`` that absorbs the
batching-induced queuing delay of the wireless MAC (20–100 ms in the WiFi
experiments, Fig. 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class ABCParams:
    """Parameters of the ABC router control law (Eq. 1 and Eq. 2).

    Attributes
    ----------
    eta:
        Target utilisation η, slightly below 1 so a small amount of bandwidth
        is traded for large delay reductions.
    delta:
        Queue-draining time constant δ in seconds; the second term of Eq. (1)
        drains queuing delay above ``dt`` within δ seconds.  Must satisfy
        ``δ > 2/3 · τ`` for stability (Theorem 3.1).
    delay_threshold:
        ``dt`` in seconds — queuing delay below this is ignored so that
        MAC-layer batching does not trigger rate reductions.
    measurement_window:
        Sliding-window length ``T`` (seconds) over which the router measures
        its dequeue rate ``cr(t)`` and link capacity ``µ(t)``.
    token_limit:
        Cap on the marking token bucket of Algorithm 1.
    additive_increase:
        Whether senders apply the ``+1/w`` per-ACK additive-increase term of
        Eq. (3).  Disabling it reproduces the unfair MIMD behaviour of
        Fig. 3a.
    window_cap_factor:
        Both sender windows are capped at this multiple of the packets in
        flight (§5.1.1 uses 2×).
    """

    eta: float = 0.98
    delta: float = 0.133
    delay_threshold: float = 0.02
    measurement_window: float = 0.05
    token_limit: float = 2.0
    additive_increase: bool = True
    window_cap_factor: float = 2.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must be in (0, 1]")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.delay_threshold < 0:
            raise ValueError("delay_threshold must be non-negative")
        if self.measurement_window <= 0:
            raise ValueError("measurement_window must be positive")
        if self.token_limit < 1.0:
            raise ValueError("token_limit must be at least 1.0")
        if self.window_cap_factor < 1.0:
            raise ValueError("window_cap_factor must be at least 1.0")

    def with_overrides(self, **kwargs) -> "ABCParams":
        """Return a copy with some fields replaced."""
        return replace(self, **kwargs)


#: Parameters used throughout the paper's cellular evaluation (§6.2).
CELLULAR_DEFAULTS = ABCParams(eta=0.98, delta=0.133, delay_threshold=0.02)

#: Parameters used for the WiFi evaluation; ``dt`` must exceed the average
#: inter-scheduling (batch) time of the WiFi MAC (§3.1.2), and Fig. 10 sweeps
#: dt over {20, 60, 100} ms.
WIFI_DEFAULTS = ABCParams(eta=0.95, delta=0.133, delay_threshold=0.06,
                          measurement_window=0.04)
