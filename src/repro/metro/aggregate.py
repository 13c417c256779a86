"""City-wide roll-ups over per-cell metro results.

A metro sweep produces one plain-dict result per (mix, cell, seed) — see
:func:`repro.metro.cell.metro_summary`.  This module turns a list of those into
city aggregates:

* per-cell utilisation (and its mean/min/max),
* p99 queuing delay merged across cells from fixed-log-bin histograms
  (cells cannot ship every per-packet delay through the cache, so each ships
  a histogram over the shared :data:`QUEUING_BIN_EDGES_MS` grid; merging is
  an elementwise sum and the percentile is read off the merged CDF),
* Jain's fairness index over every flow in the city (and over the
  long-lived base flows alone, which is the paper-style fairness number —
  churned mice finish early by design and would dominate the all-flows
  index),
* flow-completion-time percentiles over every finished churn flow.

Everything is pure arithmetic over picklable inputs, so aggregates are
bit-identical regardless of how the cells were executed (serial, pooled, or
replayed from the result cache).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

import numpy as np

#: Shared log-spaced queuing-delay grid: 8 bins per decade from 10^-2 ms to
#: 10^5 ms (57 edges → 58 counts including the underflow and overflow bins).
#: Every cell histograms onto this exact grid so merging is a plain sum.
QUEUING_BIN_EDGES_MS = tuple(10.0 ** (k / 8.0) for k in range(-16, 41))


def queuing_histogram(delays_s: Sequence[float]) -> List[int]:
    """Histogram per-packet queuing delays (seconds) onto the shared grid."""
    edges = np.asarray(QUEUING_BIN_EDGES_MS)
    if len(delays_s) == 0:
        return [0] * (len(edges) + 1)
    delays_ms = np.asarray(delays_s, dtype=float) * 1e3
    indices = np.searchsorted(edges, delays_ms, side="right")
    counts = np.bincount(indices, minlength=len(edges) + 1)
    return [int(c) for c in counts]


def merged_percentile_ms(histograms: Sequence[Sequence[int]],
                         pct: float = 99.0) -> float:
    """Percentile of the merged queuing-delay distribution, in ms.

    Returns the upper edge of the bin where the merged CDF crosses ``pct`` —
    a conservative (upward-rounded) estimate whose error is bounded by the
    bin width (≤ 33 % with 8 bins/decade).  The underflow bin resolves to the
    lowest edge and the overflow bin to the highest.
    """
    if not 0.0 < pct <= 100.0:
        raise ValueError("pct must be in (0, 100]")
    if not histograms:
        return 0.0
    merged = np.sum(np.asarray(histograms, dtype=np.int64), axis=0)
    total = int(merged.sum())
    if total == 0:
        return 0.0
    cumulative = np.cumsum(merged)
    target = pct / 100.0 * total
    index = int(np.searchsorted(cumulative, target))
    edges = QUEUING_BIN_EDGES_MS
    return float(edges[min(index, len(edges) - 1)])


#: The flow-completion-time percentiles a city reports.
FCT_PERCENTILES = (50.0, 95.0, 99.0)


def _percentiles(values: Sequence[float]) -> Dict[str, float]:
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        return {f"p{pct:g}": 0.0 for pct in FCT_PERCENTILES}
    return {f"p{pct:g}": float(np.percentile(arr, pct))
            for pct in FCT_PERCENTILES}


def aggregate_city(cell_results: Sequence[Mapping]) -> Dict[str, object]:
    """Roll a list of per-cell result dicts up into city-wide aggregates.

    A salvaged metro sweep (executor ``failure_policy="salvage"``) may hand
    this :class:`~repro.runtime.faults.JobFailure` sentinels in failed cells'
    slots; they are excluded from every aggregate and surfaced as
    ``failed_cells`` so the roll-up degrades gracefully — 199 good cells
    beat zero — without silently pretending the city was complete.
    """
    from repro.analysis.fairness import jain_fairness_index
    from repro.runtime.faults import is_failure

    cell_results = list(cell_results)
    failed_cells = sum(1 for r in cell_results if is_failure(r))
    if failed_cells:
        cell_results = [r for r in cell_results if not is_failure(r)]
    if not cell_results:
        raise ValueError("aggregate_city needs at least one cell result"
                         + (f" ({failed_cells} failed cell(s) excluded)"
                            if failed_cells else ""))
    utilization = {r["cell"]: r["utilization"] for r in cell_results}
    util_values = np.asarray(list(utilization.values()), dtype=float)
    base_tputs: List[float] = []
    all_tputs: List[float] = []
    fcts: List[float] = []
    offered = completed = drops = 0
    for r in cell_results:
        base_tputs.extend(r["base_throughputs_bps"])
        all_tputs.extend(r["base_throughputs_bps"])
        all_tputs.extend(r["churn_throughputs_bps"])
        fcts.extend(r["fct_s"])
        offered += r["offered_flows"]
        completed += r["completed_flows"]
        drops += r["drops"]
    aggregates: Dict[str, object] = {
        "cells": len(cell_results),
        "per_cell_utilization": utilization,
        "utilization_mean": float(util_values.mean()),
        "utilization_min": float(util_values.min()),
        "utilization_max": float(util_values.max()),
        "queuing_p99_ms": merged_percentile_ms(
            [r["queuing_hist"] for r in cell_results], 99.0),
        "queuing_p50_ms": merged_percentile_ms(
            [r["queuing_hist"] for r in cell_results], 50.0),
        "jain_base_flows": jain_fairness_index(base_tputs),
        "jain_all_flows": jain_fairness_index(all_tputs),
        "fct_s": _percentiles(fcts),
        "offered_flows": offered,
        "completed_flows": completed,
        "drops": drops,
    }
    if failed_cells:
        # Only present on salvaged sweeps, so complete runs keep their
        # golden-pinned layout byte for byte.
        aggregates["failed_cells"] = failed_cells
    return aggregates
