"""Packet-level discrete-event network simulator.

This subpackage is the substrate every experiment runs on.  It provides:

* :class:`~repro.simulator.engine.EventLoop` — the discrete-event scheduler.
* :class:`~repro.simulator.packet.Packet` — data and ACK packets with ECN bits.
* Queueing disciplines (:mod:`repro.simulator.qdisc`) that routers attach to
  their outgoing links.
* Link models (:mod:`repro.simulator.link`): constant rate, piecewise rate and
  trace-driven (Mahimahi-style) delivery opportunities.
* Endpoints (:mod:`repro.simulator.endpoints`): window- or rate-based senders,
  receivers that echo congestion feedback, and traffic sources.
* Per-flow statistics (:mod:`repro.simulator.monitor`) that record
  per-packet delay and per-interval throughput.
* A high-level :class:`~repro.simulator.scenario.Scenario` builder that wires
  all of the above into the topologies used in the paper's experiments.
"""
