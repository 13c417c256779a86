"""Observability: counters, run manifests, progress, traces and signals.

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
  renders a simulation's event timeline, with a :mod:`repro.obs.signals`
  recorder's link columns as counter tracks, or a sweep's job timeline.

Import discipline: the simulator and the runtime import
:mod:`repro.obs.metrics`, so it must not import either of them;
:mod:`repro.obs.manifest` reaches into ``repro.runtime`` via late imports
only.
"""
