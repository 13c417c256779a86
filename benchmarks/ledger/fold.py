"""Attribute a traced simulation's wall time to layers, from outside ``src/``.

Three sources, all installed by :func:`traced` and removed when it exits:

* the engine's per-event stream (``EventLoop.set_trace_hook``), folded by the
  class that owns each dispatched callback (:data:`OWNER_LAYERS`);
* timing wrappers set *on instances* around the two pluggable interfaces
  every code path still calls — the link's ``Qdisc`` and each flow's
  ``CongestionControl`` — whose time is nested inside some event and is
  subtracted from that event's layer to give its self time;
* class-level wrappers on ``Scenario.run`` and ``SweepJob.run`` that delimit
  ``scenario.build`` / ``scenario.run`` / ``analysis.post`` inside each job.

Event-root attribution: an event's whole wall time belongs to the layer that
owns the dispatched callback, minus the nested interface calls.  Moving work
from one layer's event into another's moves share between them; the nested
interface numbers and the event count do not have that problem.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: Layers an event can be rooted in; "other" collects unmapped owners.
EVENT_LAYERS = ("endpoints.sender", "endpoints.receiver", "link", "wifi",
                "engine.timer", "monitor", "other")

#: (module, class) of a callback's owner -> layer.  The owner's MRO is
#: walked, so a subclass defined elsewhere inherits its base's layer.
OWNER_LAYERS = {
    ("repro.simulator.endpoints", "Sender"): "endpoints.sender",
    ("repro.simulator.endpoints", "Receiver"): "endpoints.receiver",
    ("repro.simulator.scenario", "FlowDemux"): "link",
    ("repro.simulator.scenario", "Scenario"): "monitor",
    ("repro.simulator.engine", "DeadlineTimer"): "engine.timer",
}

#: Module-prefix fallbacks, tried per MRO entry after :data:`OWNER_LAYERS`.
MODULE_LAYERS = (
    ("repro.wifi", "wifi"),
    ("repro.simulator.link", "link"),
    ("repro.simulator.monitor", "monitor"),
)

#: The nested interfaces and the methods wrapped on each instance.
QDISC_METHODS = ("enqueue", "dequeue", "peek")
CC_METHODS = ("on_ack", "fast_ack", "on_loss", "on_timeout",
              "on_packet_sent", "packet_meta")

#: Qdisc implementation family, by the module prefix of the instance's class.
QDISC_FAMILIES = (("repro.core", "router"), ("repro.explicit", "explicit"))


def layer_of_owner(cls: Optional[type]) -> str:
    """The layer an event belongs to, from its callback's owner class."""
    if cls is None:
        return "other"
    for base in cls.__mro__:
        layer = OWNER_LAYERS.get((base.__module__, base.__name__))
        if layer is not None:
            return layer
        for prefix, module_layer in MODULE_LAYERS:
            if base.__module__.startswith(prefix):
                return module_layer
    return "other"


def qdisc_family(qdisc: Any) -> str:
    module = type(qdisc).__module__
    for prefix, family in QDISC_FAMILIES:
        if module.startswith(prefix):
            return family
    return "aqm"


class LayerFold:
    """Accumulated per-layer time and counts over any number of traced runs."""

    def __init__(self) -> None:
        self.run_ns = 0
        #: layer -> [event wall ns, events, ns nested in interface calls]
        self.events: Dict[str, List[int]] = {
            layer: [0, 0, 0] for layer in EVENT_LAYERS}
        #: "qdisc" / "cc" / qdisc family -> [ns, calls]
        self.nested: Dict[str, List[int]] = {
            key: [0, 0] for key in ("qdisc", "cc", "router", "aqm",
                                    "explicit")}
        self._slot_of: Dict[Optional[type], int] = {}

    # ------------------------------------------------------------- one run
    def trace_run(self, scenario: Any, run, duration: float
                  ) -> Tuple[Any, int, int, Dict[str, Any]]:
        """Run ``run(scenario, duration)`` traced.

        Returns ``(result, start_ns, end_ns, per_run_fold)``; the hook and
        every instance wrapper are gone when this returns or raises.
        """
        ev_ns = [0] * len(EVENT_LAYERS)
        ev_n = [0] * len(EVENT_LAYERS)
        ev_nested = [0] * len(EVENT_LAYERS)
        pending = [0]   # interface ns since the last event ended
        depth = [0]     # > 0 while inside a wrapped interface call
        slot_of = self._slot_of
        layers = EVENT_LAYERS

        def hook(_sim_time: float, callback: Any, wall_ns: int) -> None:
            try:
                cls = callback.__self__.__class__
            except AttributeError:
                cls = None
            slot = slot_of.get(cls)
            if slot is None:
                slot = slot_of[cls] = layers.index(layer_of_owner(cls))
            ev_ns[slot] += wall_ns
            ev_n[slot] += 1
            if pending[0]:
                ev_nested[slot] += pending[0]
                pending[0] = 0

        def timed(fn, cells: List[List[int]]):
            def wrapper(*args, **kwargs):
                if depth[0]:
                    # A wrapped method calling another wrapped method of the
                    # same object (sojourn_time -> peek): already on the clock.
                    return fn(*args, **kwargs)
                depth[0] = 1
                t0 = perf_counter_ns()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter_ns() - t0
                    depth[0] = 0
                    pending[0] += dt
                    for cell in cells:
                        cell[0] += dt
                        cell[1] += 1
            return wrapper

        run_nested = {key: [0, 0] for key in self.nested}
        #: (object, method name, the instance attribute it shadowed, if any)
        installed: List[Tuple[Any, str, Any]] = []

        def wrap(obj: Any, names: Tuple[str, ...], keys: Tuple[str, ...]):
            cells = [run_nested[key] for key in keys]
            for name in names:
                fn = getattr(obj, name, None)
                if fn is None:
                    continue
                # The router's fast path rebinds enqueue/dequeue on the
                # instance; put that binding back rather than deleting it.
                installed.append((obj, name, vars(obj).get(name)))
                setattr(obj, name, timed(fn, cells))

        scenario.env.set_trace_hook(hook)
        try:
            for link in scenario.links:
                wrap(link.qdisc, QDISC_METHODS,
                     ("qdisc", qdisc_family(link.qdisc)))
            for flow in scenario.flows:
                wrap(flow.cc, CC_METHODS, ("cc",))
            start = perf_counter_ns()
            try:
                result = run(scenario, duration)
            finally:
                end = perf_counter_ns()
        finally:
            scenario.env.set_trace_hook(None)
            for obj, name, shadowed in reversed(installed):
                if shadowed is None:
                    delattr(obj, name)
                else:
                    setattr(obj, name, shadowed)

        self.run_ns += end - start
        per_run: Dict[str, Any] = {"run_ns": end - start}
        for slot, layer in enumerate(layers):
            acc = self.events[layer]
            acc[0] += ev_ns[slot]
            acc[1] += ev_n[slot]
            acc[2] += ev_nested[slot]
            if ev_n[slot]:
                per_run[layer] = {"ns": ev_ns[slot], "events": ev_n[slot],
                                  "nested_ns": ev_nested[slot]}
        for key, (ns, calls) in run_nested.items():
            self.nested[key][0] += ns
            self.nested[key][1] += calls
            if calls:
                per_run[key] = {"ns": ns, "calls": calls}
        return result, start, end, per_run

    # ------------------------------------------------------------- results
    def partition(self) -> Dict[str, float]:
        """Self-time shares of traced ``Scenario.run`` wall; they sum to 1."""
        total = self.run_ns or 1
        callbacks = sum(acc[0] for acc in self.events.values())
        shares = {"engine.dispatch": (self.run_ns - callbacks) / total}
        for layer, (ns, _events, nested_ns) in self.events.items():
            shares[layer] = (ns - nested_ns) / total
        shares["qdisc"] = self.nested["qdisc"][0] / total
        shares["cc"] = self.nested["cc"][0] / total
        return shares

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics named in ``BENCHMARK.json``."""
        total = self.run_ns or 1
        ev = self.events
        events = sum(acc[1] for acc in ev.values())
        dispatch_ns = self.run_ns - sum(acc[0] for acc in ev.values())

        def share(layer: str) -> float:
            return ev[layer][0] / total

        def self_share(layer: str) -> float:
            return (ev[layer][0] - ev[layer][2]) / total

        def per_call(key: str) -> float:
            ns, calls = self.nested[key]
            return ns / calls if calls else 0.0

        return {
            "engine.events": events,
            "engine.dispatch_share": dispatch_ns / total,
            "engine.dispatch_ns_per_event": (dispatch_ns / events
                                             if events else 0.0),
            "engine.timer_share": share("engine.timer"),
            "endpoints.sender_share": share("endpoints.sender"),
            "endpoints.sender_events": ev["endpoints.sender"][1],
            "endpoints.sender_self_share": self_share("endpoints.sender"),
            "endpoints.receiver_share": share("endpoints.receiver"),
            "endpoints.receiver_events": ev["endpoints.receiver"][1],
            "link.share": share("link"),
            "link.events": ev["link"][1],
            "link.self_share": self_share("link"),
            "wifi.share": share("wifi"),
            "wifi.events": ev["wifi"][1],
            "wifi.self_share": self_share("wifi"),
            "monitor.share": share("monitor"),
            "other.share": share("other"),
            "qdisc.share": self.nested["qdisc"][0] / total,
            "qdisc.calls": self.nested["qdisc"][1],
            "qdisc.ns_per_call": per_call("qdisc"),
            "router.share": self.nested["router"][0] / total,
            "aqm.share": self.nested["aqm"][0] / total,
            "explicit.share": self.nested["explicit"][0] / total,
            "cc.share": self.nested["cc"][0] / total,
            "cc.calls": self.nested["cc"][1],
            "cc.ns_per_call": per_call("cc"),
        }


class Spans:
    """In-memory span store, written as chrome-trace JSON at exit."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @property
    def current(self) -> Optional[Dict[str, Any]]:
        """The innermost open span, or None outside every span."""
        return self.spans[self._stack[-1] - 1] if self._stack else None

    def add(self, name: str, start_ns: int, end_ns: int,
            args: Optional[Dict[str, Any]] = None) -> int:
        """Record a finished span under the innermost open one."""
        span_id = len(self.spans) + 1
        self.spans.append({
            "id": span_id, "parent": self._stack[-1] if self._stack else 0,
            "name": name, "start_ns": start_ns, "end_ns": end_ns,
            "args": args or {}})
        return span_id

    @contextmanager
    def span(self, name: str, **args: Any) -> Iterator[Dict[str, Any]]:
        """Open a span; spans added inside become its children."""
        span_id = self.add(name, perf_counter_ns(), 0, args)
        record = self.spans[span_id - 1]
        self._stack.append(span_id)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end_ns"] = perf_counter_ns()

    def self_ns(self) -> Dict[int, int]:
        """Span id -> duration minus the part its children cover."""
        own = {s["id"]: s["end_ns"] - s["start_ns"] for s in self.spans}
        for s in self.spans:
            if s["parent"]:
                own[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return own

    def write_chrome(self, path) -> None:
        origin = min((s["start_ns"] for s in self.spans), default=0)
        own = self.self_ns()
        events = [{
            "name": s["name"], "ph": "X", "pid": 1, "tid": 1,
            "ts": (s["start_ns"] - origin) / 1e3,
            "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
            "args": {**s["args"], "id": s["id"], "parent": s["parent"],
                     "self_us": own[s["id"]] / 1e3},
        } for s in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                      handle)


@contextmanager
def traced(fold: LayerFold, spans: Spans) -> Iterator[None]:
    """Trace every ``Scenario.run`` (and span every ``SweepJob.run``) inside.

    Patches the two methods at class level and restores the originals on
    exit, whatever happens inside.
    """
    from repro.runtime import SweepJob
    from repro.simulator.scenario import Scenario

    scenario_run = Scenario.run
    job_run = SweepJob.run
    last_run_end = [0]

    def traced_scenario_run(self, duration):
        result, start, end, per_run = fold.trace_run(self, scenario_run,
                                                     duration)
        job = spans.current
        if job is not None:
            # Inside a job span: everything since the job began was build.
            spans.add("scenario.build",
                      max(job["start_ns"], last_run_end[0]), start)
        spans.add("scenario.run", start, end, per_run)
        last_run_end[0] = end
        return result

    def traced_job_run(self):
        with spans.span("job", label=self.label) as record:
            try:
                return job_run(self)
            finally:
                if last_run_end[0] > record["start_ns"]:
                    spans.add("analysis.post", last_run_end[0],
                              perf_counter_ns())

    Scenario.run = traced_scenario_run
    SweepJob.run = traced_job_run
    try:
        yield
    finally:
        Scenario.run = scenario_run
        SweepJob.run = job_run


def phase_shares(spans: Spans) -> Dict[str, float]:
    """``scenario.build`` / ``.run`` / ``analysis.post`` as shares of job wall.

    Job spans exist only where :func:`traced` was active, so this sums the
    traced repetitions.
    """
    totals = {"job": 0, "scenario.build": 0, "scenario.run": 0,
              "analysis.post": 0}
    for s in spans.spans:
        if s["name"] in totals:
            totals[s["name"]] += s["end_ns"] - s["start_ns"]
    job = totals["job"] or 1
    return {"scenario.build_share": totals["scenario.build"] / job,
            "scenario.run_share": totals["scenario.run"] / job,
            "analysis.post_share": totals["analysis.post"] / job}
