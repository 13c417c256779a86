"""Observability: counter registry, run manifests, progress, trace export.

The subsystem is opt-in via three knobs (declared in :mod:`repro.config`) and
costs (near) nothing when disabled:

* ``REPRO_TELEMETRY=1`` — the process-local registry of simulation counters
  (:mod:`repro.obs.metrics`).  Components are *harvested* (their always-on
  counters are read once at run end) rather than instrumented per event or
  per call, so unset it costs nothing and the per-packet pipeline is
  untouched either way.
* ``REPRO_RUN_DIR=<dir>`` — every sweep / metro / fuzz run writes a JSON
  provenance manifest there (:mod:`repro.obs.manifest`), whose ``executor``
  section is the sweep's own record: its stats and one entry per attempt.
* ``REPRO_PROGRESS=1`` — a live stderr progress line for long sweeps
  (:mod:`repro.obs.progress`).
* Chrome-trace export (:mod:`repro.obs.trace` + ``tools/export_trace.py``)
  renders a simulation's event timeline or a sweep's per-worker job timeline
  as ``chrome://tracing``-loadable JSON.

Import discipline: this package is imported by the simulator and the runtime,
so :mod:`repro.obs.metrics` (the only module loaded eagerly) must not import
either of them; :mod:`repro.obs.manifest` reaches into ``repro.runtime`` via
late imports only.
"""

from repro.obs.metrics import enabled, override, registry

__all__ = ["enabled", "override", "registry"]
