"""Metro sweep specification: a city of cells on the runtime executor.

:class:`MetroSpec` reuses the :class:`~repro.runtime.spec.SweepSpec` grid
expansion — deterministic order, duplicate-cell detection, trace
registration with the shared store and ``jobs_for_seed``, so a city runs
through :func:`~repro.experiments.runner.run_seed_grid` like any figure —
and swaps in the metro vocabulary:

* the *scheme* axis holds weighted mixes (``"abc:0.6,cubic:0.3,bbr:0.1"``)
  instead of single scheme labels;
* the *trace* axis holds one entry per cell (its name is the cell name);
* each grid coordinate is a metro cell's spec (:meth:`MetroSpec.cell_spec`:
  its Poisson arrivals, Pareto sizes and scheme draws made here, in the
  parent) run through the ``metro`` summary
  (:func:`repro.metro.cell.metro_summary`) instead of the single-bottleneck
  one.

:func:`metro_pack` builds the standard city: ``n_cells`` cells whose
capacity traces cycle through the synthetic cellular trace library with a
distinct trace seed per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

from repro.metro.workload import (bounded_pareto_sizes, parse_mix,
                                  poisson_arrivals, scheme_assignment)
from repro.runtime.spec import SweepJob, SweepSpec

#: The default city-wide scheme mix (dominantly ABC, with loss-based and
#: model-based coexistence traffic).
DEFAULT_MIX = "abc:0.6,cubic:0.3,bbr:0.1"
#: The share of a :func:`metro_pack` city's cells that are square-wave
#: sectors (the rest are trace-driven).
SQUARE_FRACTION = 0.5
#: Every cell's long-lived backlogged flows, started at t=0.
BASE_FLOWS = 2
#: The bounded-Pareto law of every cell's churn flow sizes: the smallest and
#: largest size (bytes) and the shape α.
FLOW_SIZE_MIN = 20_000
FLOW_SIZE_MAX = 2_000_000
FLOW_SIZE_ALPHA = 1.2
#: Every metro flow's base round-trip time (s).
METRO_RTT = 0.05


@dataclass
class MetroSpec(SweepSpec):
    """Axes of a mix × cell × seed metro sweep.

    ``schemes`` holds weighted mix labels (see
    :func:`repro.metro.workload.parse_mix`); ``traces`` maps cell names to
    link specs (a :class:`~repro.cellular.trace.CellularTrace`, a rate in
    bps or a :class:`~repro.experiments.scenario_spec.LinkSpec`).  Every
    cell runs ``BASE_FLOWS`` backlogged flows plus churn flows arriving as a
    Poisson process of rate ``arrival_rate`` (per second, the one workload
    option), sized by the ``FLOW_SIZE_*`` bounded-Pareto law.
    """

    duration: float = 8.0
    arrival_rate: float = 2.0

    def _validate_schemes(self) -> None:
        from repro.cc.registry import available_schemes

        if not self.schemes:
            raise ValueError("metro sweep needs at least one scheme mix")
        known = set(available_schemes())
        for label in self.schemes:
            for name, _ in parse_mix(label):
                if name not in known:
                    raise ValueError(
                        f"unknown scheme {name!r} in mix {label!r}; known "
                        f"sender-side schemes: {sorted(known)}")

    def cell_spec(self, mix: str, cell: str, link_spec: Any,
                  seed: int) -> ScenarioSpec:
        """One cell of this city, its ``(cell, seed)`` workload drawn.  The
        link (any ``link_spec_from`` value) is named after the cell and runs
        the ABC router qdisc: non-ABC flows simply never receive accelerate
        marks, matching the paper's coexistence setup."""
        from repro.experiments.scenario_spec import (NATIVE, FlowSpec,
                                                     ScenarioSpec,
                                                     link_spec_from)

        # Arrivals too late to finish a round trip stay: they add load.
        arrivals = poisson_arrivals(self.arrival_rate, self.duration, cell,
                                    seed)
        sizes = bounded_pareto_sizes(len(arrivals), cell, seed,
                                     min_bytes=FLOW_SIZE_MIN,
                                     max_bytes=FLOW_SIZE_MAX,
                                     alpha=FLOW_SIZE_ALPHA)
        base = BASE_FLOWS
        schemes = scheme_assignment(base + len(arrivals), parse_mix(mix),
                                    cell, seed)
        ccs = [NATIVE if scheme == "abc" else scheme for scheme in schemes]
        flows = [FlowSpec(cc=ccs[index], rtt=METRO_RTT, label=f"base-{index}")
                 for index in range(base)]
        flows += [FlowSpec(cc=ccs[base + index], rtt=METRO_RTT,
                           start_time=start, size_bytes=size,
                           label=f"churn-{index}")
                  for index, (start, size) in enumerate(zip(arrivals, sizes))]
        return ScenarioSpec(scheme="abc", duration=self.duration, flows=flows,
                            links=[link_spec_from(
                                link_spec, name=cell,
                                buffer_packets=self.buffer_packets)])

    def _make_job(self, scheme: str, trace_name: str, link_spec: Any,
                  seed: int) -> SweepJob:
        from repro.experiments.scenario_spec import spec_job

        mix = str(scheme).lower()
        return spec_job(self.cell_spec(mix, trace_name, link_spec, seed),
                        "metro", f"{scheme}/{trace_name}/seed{seed}", mix=mix,
                        seed=seed, warmup=0.0)


def metro_pack(n_cells: int, duration: float = 8.0, trace_seed: int = 1,
               seeds: Sequence[int] = (0,),
               mixes: Sequence[str] = (DEFAULT_MIX,),
               **spec_kwargs) -> MetroSpec:
    """The standard metro city: ``n_cells`` cellular cells of two classes.

    The paper models cellular capacity two ways — Mahimahi-style delivery
    traces (Figs. 2/15) and a square-wave time-varying rate (Fig. 17) — and
    a city contains both kinds of cell.  ``SQUARE_FRACTION`` of the cells
    (interleaved evenly, deterministic per index) are square-wave sectors
    whose low/high rates and half-period are drawn from the cell's own
    stream; the rest are trace-driven, cycling through the synthetic trace
    library (:data:`repro.cellular.synthetic.TRACE_LIBRARY`) with a distinct
    trace seed per cell.  No two cells see the same capacity process but the
    whole city is reproducible from ``trace_seed``.  Extra keyword arguments
    pass through to :class:`MetroSpec` (e.g. ``arrival_rate=4.0``,
    ``seeds=range(5)``).
    """
    from repro.cellular.synthetic import TRACE_LIBRARY, synthetic_trace
    from repro.experiments.scenario_spec import LinkSpec
    from repro.metro.workload import stream

    if n_cells <= 0:
        raise ValueError("n_cells must be positive")
    library = sorted(TRACE_LIBRARY)
    traces: Dict[str, Any] = {}
    square_count = 0
    for index in range(n_cells):
        name = f"cell-{index:03d}"
        # Even interleaving: cell i is a square-wave sector iff admitting it
        # keeps the running square share at or below SQUARE_FRACTION.
        if square_count + 1 <= (index + 1) * SQUARE_FRACTION:
            rng = stream("square", name, trace_seed)
            low = rng.uniform(8e6, 16e6)
            high = low * rng.uniform(1.5, 2.5)
            half_period = rng.uniform(0.3, 0.7)
            traces[name] = LinkSpec("square", {"low_bps": low,
                                               "high_bps": high,
                                               "half_period": half_period})
            square_count += 1
        else:
            config = TRACE_LIBRARY[library[index % len(library)]]
            traces[name] = synthetic_trace(config, duration,
                                           seed=trace_seed * 10_007 + index,
                                           name=name)
    return MetroSpec(schemes=list(mixes), traces=traces, seeds=seeds,
                     duration=duration, **spec_kwargs)
