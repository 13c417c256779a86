"""Metro sweep specification: a city of cells on the runtime executor.

:class:`MetroSpec` reuses the :class:`~repro.runtime.spec.SweepSpec` grid
expansion — deterministic order, duplicate-cell detection, trace
registration with the shared store and ``jobs_for_seed``, so a city runs
through :func:`~repro.experiments.runner.run_seed_grid` like any figure —
and swaps in the metro vocabulary:

* the *scheme* axis holds weighted mixes (``"abc:0.6,cubic:0.3,bbr:0.1"``)
  instead of single scheme labels;
* the *trace* axis holds one entry per cell (its name is the cell name);
* each grid coordinate runs :func:`repro.metro.cell.metro_cell` instead of
  the single-bottleneck experiment runner.

:func:`metro_pack` builds the standard city: ``n_cells`` cells whose
capacity traces cycle through the synthetic cellular trace library with a
distinct trace seed per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Sequence

from repro.metro.cell import metro_cell
from repro.metro.workload import parse_mix
from repro.runtime.executor import SweepJob
from repro.runtime.spec import SweepSpec

#: The default city-wide scheme mix (dominantly ABC, with loss-based and
#: model-based coexistence traffic).
DEFAULT_MIX = "abc:0.6,cubic:0.3,bbr:0.1"


@dataclass
class MetroSpec(SweepSpec):
    """Axes of a mix × cell × seed metro sweep.

    ``schemes`` holds weighted mix labels (see
    :func:`repro.metro.workload.parse_mix`); ``traces`` maps cell names to
    link specs (a :class:`~repro.cellular.trace.CellularTrace` or a rate in
    bps).  The workload knobs (``base_flows``, ``arrival_rate``, the
    bounded-Pareto size law) apply to every cell.
    """

    rtt: float = 0.05
    duration: float = 8.0
    base_flows: int = 2
    arrival_rate: float = 2.0
    flow_size_min: int = 20_000
    flow_size_max: int = 2_000_000
    flow_size_alpha: float = 1.2

    def _validate_schemes(self) -> None:
        from repro.cc import available_schemes

        if not self.schemes:
            raise ValueError("metro sweep needs at least one scheme mix")
        known = set(available_schemes())
        for label in self.schemes:
            for name, _ in parse_mix(label):
                if name not in known:
                    raise ValueError(
                        f"unknown scheme {name!r} in mix {label!r}; known "
                        f"sender-side schemes: {sorted(known)}")

    def _make_job(self, scheme: str, trace_name: str, link_spec: Any,
                  seed: int) -> SweepJob:
        kwargs = dict(
            mix=str(scheme).lower(), cell=trace_name, link_spec=link_spec,
            seed=seed, rtt=self.rtt, duration=self.duration,
            buffer_packets=self.buffer_packets, base_flows=self.base_flows,
            arrival_rate=self.arrival_rate,
            flow_size_min=self.flow_size_min,
            flow_size_max=self.flow_size_max,
            flow_size_alpha=self.flow_size_alpha, warmup=self.warmup)
        return SweepJob(func=metro_cell, kwargs=kwargs,
                        label=f"{scheme}/{trace_name}/seed{seed}")


def metro_pack(n_cells: int, duration: float = 8.0, trace_seed: int = 1,
               seeds: Sequence[int] = (0,),
               mixes: Sequence[str] = (DEFAULT_MIX,),
               square_fraction: float = 0.5,
               **spec_kwargs) -> MetroSpec:
    """The standard metro city: ``n_cells`` cellular cells of two classes.

    The paper models cellular capacity two ways — Mahimahi-style delivery
    traces (Figs. 2/15) and a square-wave time-varying rate (Fig. 17) — and
    a city contains both kinds of cell.  ``square_fraction`` of the cells
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
    from repro.metro.workload import stream

    if n_cells <= 0:
        raise ValueError("n_cells must be positive")
    if not 0.0 <= square_fraction <= 1.0:
        raise ValueError("square_fraction must be in [0, 1]")
    library = sorted(TRACE_LIBRARY)
    traces: Dict[str, Any] = {}
    square_count = 0
    for index in range(n_cells):
        name = f"cell-{index:03d}"
        # Even interleaving: cell i is a square-wave sector iff admitting it
        # keeps the running square share at or below square_fraction.
        if square_count + 1 <= (index + 1) * square_fraction:
            rng = stream("square", name, trace_seed)
            low = rng.uniform(8e6, 16e6)
            high = low * rng.uniform(1.5, 2.5)
            half_period = rng.uniform(0.3, 0.7)
            traces[name] = ("square", low, high, half_period)
            square_count += 1
        else:
            config = TRACE_LIBRARY[library[index % len(library)]]
            traces[name] = synthetic_trace(config, duration,
                                           seed=trace_seed * 10_007 + index,
                                           name=name)
    return MetroSpec(schemes=list(mixes), traces=traces, seeds=seeds,
                     duration=duration, **spec_kwargs)
