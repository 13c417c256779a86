"""Declarative sweep specifications.

A :class:`SweepSpec` names the axes of a figure-style sweep — schemes ×
traces × seeds — and expands into independent
:class:`SweepJob`\\ s, one per cell: a
:func:`~repro.experiments.scenario_spec.spec_cell` job whose spec is
:func:`repro.experiments.runner.single_bottleneck_spec`'s and whose
``single_bottleneck`` summary returns a picklable
:class:`~repro.experiments.runner.SingleBottleneckResult`, so cells can
cross process boundaries and live in the on-disk cache.

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

from dataclasses import dataclass, field, replace
from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.runtime.cache import stable_hash
from repro.runtime.trace_store import register_trace


@dataclass
class SweepJob:
    """One independent sweep cell: a module-level function plus kwargs.

    ``label`` is purely cosmetic (progress/debug output); it does not enter
    the cache key, so relabeling a job still hits its cached result.
    """

    func: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def cache_key(self, salt: str) -> str:
        """Content-addressed cache key: function identity + kwargs + salt."""
        func_id = f"{self.func.__module__}.{self.func.__qualname__}"
        return stable_hash([func_id, self.kwargs, salt])

    def run(self) -> Any:
        return self.func(**self.kwargs)


def validate_schemes(schemes: Sequence[str]) -> List[str]:
    """Check every label against the scheme registry; raise ``ValueError``.

    Returns the normalised (lower-cased) labels on success.
    """
    from repro.experiments.scenario_spec import SCHEMES

    schemes = list(schemes)
    if not schemes:
        raise ValueError("sweep needs at least one scheme")
    known = frozenset(SCHEMES)
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
    :class:`~repro.experiments.scenario_spec.LinkSpec`).  ``seeds`` are the
    per-cell simulation seeds; the default ``(0,)`` is the single-seed
    figure.  A spec only expands: :meth:`jobs_for_seed` is one seed's jobs,
    the shape :func:`repro.experiments.runner.run_seed_grid` runs.
    """

    schemes: Sequence[str]
    traces: Mapping[str, Any]
    seeds: Sequence[int] = (0,)
    duration: float = 30.0
    buffer_packets: int = 250

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

        The base spec describes the single-bottleneck experiment; subclasses
        describe their own scenario and summary while inheriting the grid
        expansion, duplicate detection and trace-store registration
        unchanged.
        """
        from repro.experiments.runner import single_bottleneck_spec
        from repro.experiments.scenario_spec import BASE_RTT, spec_job

        return spec_job(single_bottleneck_spec(
            scheme, link_spec, rtt=BASE_RTT, duration=self.duration,
            buffer_packets=self.buffer_packets, seed=seed),
            "single_bottleneck", f"{scheme}/{trace_name}/seed{seed}",
            warmup=0.0)

    def expand(self) -> Tuple[List[SweepCell], List[SweepJob]]:
        """All cells in deterministic scheme→trace→seed order.

        Cellular traces are registered with the shared trace store once and
        enter each job's spec as a ``trace_ref`` link (the trace's content
        key and name), so a grid of ``S × T`` cells pickles each trace once
        per worker pool instead of once per cell, and cache keys stay
        content-addressed.
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
