"""End-to-end congestion-control baselines used in the paper's evaluation.

Every algorithm implements the :class:`~repro.cc.base.CongestionControl`
interface so the generic :class:`~repro.simulator.endpoints.Sender` can drive
any of them.  The registry in :func:`repro.cc.registry.make_cc` lets
experiments select schemes by name (``"cubic"``, ``"bbr"``, ...), matching
the scheme labels used in the paper's figures.
"""

from repro.cc.registry import make_cc  # read by benchmarks/ledger
