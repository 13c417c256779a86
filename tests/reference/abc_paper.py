"""ABC's router and sender rules, written from the paper's text: plain
functions of what a test logged itself (capacity, backlog, departures,
windows).  Nothing here imports ``repro``."""

from __future__ import annotations

#: §5.1.2: the two ECN bits (ECT, CE) -> (classic meaning, ABC meaning).
NOT_ECT, ACCELERATE, BRAKE, CE = 0b00, 0b01, 0b10, 0b11
CODEPOINTS = {
    NOT_ECT: ("Non-ECN-Capable Transport", "Non-ECN-Capable Transport"),
    ACCELERATE: ("ECN-Capable Transport ECT(1)", "Accelerate"),
    BRAKE: ("ECN-Capable Transport ECT(0)", "Brake"),
    CE: ("ECN set", "ECN set"),
}


def echo(codepoint: int) -> tuple:
    """§5.1.2's return path, ``(accel, ece)``: the re-purposed NS bit
    carries accelerate, ECE a classic CE; brake and Not-ECT set neither."""
    return codepoint == ACCELERATE, codepoint == CE


def brake(codepoint: int) -> int:
    """A router's brake: an accelerate becomes a brake; nothing is ever
    upgraded, and brake, CE and Not-ECT pass unchanged (§3.1.2)."""
    return BRAKE if codepoint == ACCELERATE else codepoint


def queuing_delay(queue_bits: float, mu: float) -> float:
    """x(t) = q(t)/µ(t), 0 on a link with no capacity."""
    return queue_bits / mu if mu > 0 else 0.0


def target_rate(mu: float, queue_bits: float, eta: float, delta: float,
                dt: float) -> float:
    """Eq. 1: tr = η·µ − (µ/δ)·(x − dt)⁺, floored at 0."""
    x = queuing_delay(queue_bits, mu)
    return max(eta * mu - (mu / delta) * max(x - dt, 0.0), 0.0)


def accel_fraction(tr: float, cr: float) -> float:
    """Eq. 2: f = min(½·tr/cr, 1); 1 while there is no rate measurement
    (cr ≤ 0), so senders may ramp up."""
    return 1.0 if cr <= 0 else min(0.5 * tr / cr, 1.0)


def window_rate(log: list, now: float, window: float) -> float:
    """cr(t) in bit/s over ``log``, the ``(time, bytes)`` samples so far.

    The window edge rule, the one choice here the paper leaves open: the
    closed window [now − T, now], which counts the packet departing at
    ``now`` (it is already in ``log``), over T, or over the time since the
    first sample while that is shorter than T (start-up).
    """
    live = sum(size for t, size in log if t >= now - window)
    if not live:
        return 0.0
    span = now - log[0][0]
    if span > window or span <= 0:
        span = window
    return live * 8.0 / span


def dual_window(w_abc: float, w_cubic: float, in_flight: int,
                factor: float) -> tuple:
    """§5.1.1: both windows capped at max(2, factor · in-flight); the sender
    uses the smaller, at least one packet.  Returns ``(w_abc, w_cubic,
    window)``."""
    cap = max(2.0, factor * in_flight)
    w_abc, w_cubic = min(w_abc, cap), min(w_cubic, cap)
    return w_abc, w_cubic, max(min(w_abc, w_cubic), 1.0)
