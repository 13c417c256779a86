"""The paper's contribution: Accel-Brake Control (ABC).

* :mod:`repro.core.params` — the protocol constants (η, δ, dt, ...).
* :mod:`repro.core.marking` — Algorithm 1's deterministic token-bucket marker
  (plus a probabilistic variant used as an ablation).
* :mod:`repro.core.router` — the ABC router qdisc: target-rate computation
  (Eq. 1), accelerate-fraction computation (Eq. 2) and per-packet marking.
* :mod:`repro.core.sender` — the ABC sender: accel/brake window updates with
  additive increase (Eq. 3) and the dual-window coexistence machinery of
  §5.1.1.
* :mod:`repro.core.coexistence` — the two-queue scheduler and the max-min
  weight allocation used to share an ABC bottleneck with non-ABC flows (§5.2).
* :mod:`repro.core.pk_abc` — the PK-ABC oracle variant (§6.6).
* :mod:`repro.core.stability` — the fluid model behind Theorem 3.1.
"""
