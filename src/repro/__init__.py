"""Reproduction of *ABC: A Simple Explicit Congestion Controller for Wireless Networks*.

The package is organised as follows:

``repro.simulator``
    Packet-level discrete-event network simulator (event loop, links, queues,
    endpoints, traffic sources, monitors).  This plays the role of the paper's
    Mahimahi emulation plus the Linux networking stack.
``repro.core``
    The paper's contribution: the ABC sender, the ABC router, the ECN
    re-purposing, coexistence machinery and the fluid-model stability analysis.
``repro.aqm``
    Active queue management baselines (DropTail, CoDel, PIE, RED).
``repro.cc``
    End-to-end congestion-control baselines (Cubic, NewReno, Vegas, BBR, Copa,
    PCC-Vivace, Sprout, Verus).
``repro.explicit``
    Explicit-feedback baselines (XCP, XCPw, RCP, VCP).
``repro.wifi``
    802.11n MAC model and the ABC WiFi link-rate estimator.
``repro.cellular``
    Mahimahi-style cellular traces and synthetic trace generators.
``repro.analysis``
    Metrics, fairness indices, Space-Saving top-K, max-min allocation.
``repro.experiments``
    One module per paper figure/table, plus a shared experiment runner.
"""

__version__ = "1.0.0"
