"""Declarative sweep specifications.

A :class:`SweepSpec` names the axes of a figure-style sweep — schemes ×
traces × seeds — and expands into independent
:class:`~repro.runtime.executor.SweepJob`\\ s, one per cell.  Each cell runs
:func:`repro.experiments.runner.run_single_bottleneck` in its own simulator
and returns a :class:`~repro.experiments.runner.SingleBottleneckResult`
stripped to its picklable metrics, so cells can cross process boundaries and
live in the on-disk cache.

A spec runs nothing itself: :func:`repro.experiments.runner.run_seed_grid`
is the one runner (one ``executor.run``, one ``figure`` manifest), fed one
seed's jobs at a time::

    spec = metro_pack(n_cells=20, seeds=(0,))
    results = run_seed_grid(spec.jobs_for_seed, 0, spec.seeds, executor)

Validation happens at expansion time: an unknown scheme label or an empty
trace/scheme axis raises :class:`ValueError` immediately instead of failing
deep inside a half-finished sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.runtime.executor import SweepJob
from repro.runtime.trace_store import register_trace, resolve_link_spec


def sweep_cell(**kwargs) -> Any:
    """Run one (scheme, trace, seed) cell.

    Module-level so multiprocessing workers can import it by name.
    ``link_spec`` (and any ``extra_links``) may be
    :class:`~repro.runtime.trace_store.TraceRef` handles, which are resolved
    against this process's trace store before the simulation runs.  Returns
    the :class:`SingleBottleneckResult` with its ``extra`` dict reduced to
    picklable values (the live ``Scenario``/flow objects are dropped,
    ``per_link_utilization`` is kept).
    """
    from repro.experiments.runner import run_single_bottleneck

    kwargs = dict(kwargs)
    kwargs["link_spec"] = resolve_link_spec(kwargs["link_spec"])
    if "extra_links" in kwargs:
        kwargs["extra_links"] = tuple(resolve_link_spec(link)
                                      for link in kwargs["extra_links"])
    result = run_single_bottleneck(**kwargs)
    return strip_result(result)


def strip_result(result: Any) -> Any:
    """Drop live simulator objects from a result's ``extra`` dict."""
    extra = getattr(result, "extra", None)
    if isinstance(extra, dict):
        result.extra = {k: v for k, v in extra.items()
                        if k == "per_link_utilization"}
    return result


def validate_schemes(schemes: Sequence[str]) -> List[str]:
    """Check every label against the scheme registry; raise ``ValueError``.

    Returns the normalised (lower-cased) labels on success.
    """
    from repro.experiments.runner import known_scheme_names

    schemes = list(schemes)
    if not schemes:
        raise ValueError("sweep needs at least one scheme")
    known = known_scheme_names()
    unknown = [s for s in schemes if str(s).lower() not in known]
    if unknown:
        raise ValueError(
            f"unknown scheme label(s) {unknown!r}; known schemes: "
            f"{sorted(known)}")
    return [str(s).lower() for s in schemes]


@dataclass(frozen=True)
class SweepCell:
    """The coordinates of one job inside a :class:`SweepSpec` grid."""

    scheme: str
    trace: str
    seed: int


@dataclass
class SweepSpec:
    """Axes of a scheme × trace × seed grid.

    ``traces`` maps display names to link specs (a
    :class:`~repro.cellular.trace.CellularTrace`, a rate in bps, or a
    :class:`~repro.simulator.link.CapacityModel`).  ``seeds`` are the
    per-cell simulation seeds; the default ``(0,)`` is the single-seed
    figure.  A spec only expands: :meth:`jobs_for_seed` is one seed's jobs,
    the shape :func:`repro.experiments.runner.run_seed_grid` runs.
    """

    schemes: Sequence[str]
    traces: Mapping[str, Any]
    seeds: Sequence[int] = (0,)
    rtt: float = 0.1
    duration: float = 30.0
    buffer_packets: int = 250
    abc_params: Optional[Any] = None
    warmup: float = 0.0

    def validate(self) -> None:
        self._validate_schemes()
        if not self.traces:
            raise ValueError("sweep needs a non-empty trace set")
        if not self.seeds:
            raise ValueError("sweep needs at least one seed")

    def _validate_schemes(self) -> None:
        """Hook: check the scheme axis.  Subclasses with a different label
        vocabulary (e.g. :class:`repro.metro.spec.MetroSpec`, whose labels
        are weighted scheme *mixes*) override this."""
        validate_schemes(self.schemes)

    def _make_job(self, scheme: str, trace_name: str, link_spec: Any,
                  seed: int) -> SweepJob:
        """Hook: build the :class:`SweepJob` for one grid coordinate.

        The base spec runs :func:`sweep_cell`
        (→ :func:`~repro.experiments.runner.run_single_bottleneck`);
        subclasses substitute their own module-level job function while
        inheriting the grid expansion, duplicate detection and trace-store
        registration unchanged.
        """
        kwargs = dict(
            scheme=str(scheme).lower(), link_spec=link_spec,
            rtt=self.rtt, duration=self.duration,
            buffer_packets=self.buffer_packets,
            abc_params=self.abc_params, warmup=self.warmup,
            seed=seed)
        return SweepJob(func=sweep_cell, kwargs=kwargs,
                        label=f"{scheme}/{trace_name}/seed{seed}")

    def expand(self) -> Tuple[List[SweepCell], List[SweepJob]]:
        """All cells in deterministic scheme→trace→seed order.

        Cellular traces are registered with the shared trace store and
        replaced inside job kwargs by tiny
        :class:`~repro.runtime.trace_store.TraceRef` handles, so a grid of
        ``S × T`` cells pickles each trace once per worker pool instead of
        once per cell.  The ref hashes like the trace's content, so cache
        keys stay content-addressed.
        """
        from repro.cellular.trace import CellularTrace

        self.validate()
        trace_specs = {
            name: (register_trace(spec)
                   if isinstance(spec, CellularTrace) else spec)
            for name, spec in self.traces.items()}
        cells: List[SweepCell] = []
        jobs: List[SweepJob] = []
        seen_cells: set = set()
        for scheme in self.schemes:
            for trace_name, link_spec in trace_specs.items():
                for seed in self.seeds:
                    # A duplicate coordinate would silently run (and be
                    # aggregated) twice — e.g. a scheme listed under two
                    # spellings.  Fail loudly instead.
                    key = (str(scheme).lower(), trace_name, seed)
                    if key in seen_cells:
                        raise ValueError(
                            f"duplicate sweep cell: scheme={scheme!r}, "
                            f"trace={trace_name!r}, seed={seed} — check the "
                            f"schemes/seeds axes for repeats")
                    seen_cells.add(key)
                    # The job normalises the label inside its kwargs so a
                    # mixed-case spelling hashes to the same cache key; the
                    # cell keeps the caller's spelling so grouped results
                    # stay keyed the way they were requested.
                    cells.append(SweepCell(scheme=str(scheme),
                                           trace=trace_name, seed=seed))
                    jobs.append(self._make_job(scheme, trace_name,
                                               link_spec, seed))
        return cells, jobs

    def jobs_for_seed(self, seed: int) -> List[SweepJob]:
        """Seed ``seed``'s jobs: the grid expanded with ``seeds=(seed,)``."""
        return replace(self, seeds=(seed,)).expand()[1]
