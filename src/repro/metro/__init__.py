"""Metro-scale scenario pack: a city of cellular cells under flow churn.

The paper evaluates ABC one bottleneck at a time; this package composes
hundreds of such bottlenecks — each an independent cellular cell with a mix
of long-lived and churning flows — into one *metro* sweep, routed through the
:mod:`repro.runtime` executor so the seed axis, the worker pool and the
on-disk result cache all apply unchanged.

Layout
------
:mod:`repro.metro.workload`
    Deterministic Poisson arrival times, bounded-Pareto flow sizes and
    weighted scheme-mix assignment (one independent RNG stream per
    (cell, seed, purpose) key).
:mod:`repro.metro.cell`
    ``metro_summary`` — the summary that runs one cell (a
    ``MetroSpec.cell_spec``) into a plain-dict row.
:mod:`repro.metro.spec`
    :class:`~repro.metro.spec.MetroSpec` (a :class:`~repro.runtime.spec.SweepSpec`
    whose scheme axis holds weighted mixes) and the
    :func:`~repro.metro.spec.metro_pack` city builder.
:mod:`repro.metro.aggregate`
    City-wide roll-ups: per-cell utilisation, histogram-merged p99 queuing
    delay, Jain fairness over every flow in the city, FCT percentiles.
"""

from repro.metro.aggregate import aggregate_city  # read by benchmarks/ledger
from repro.metro.spec import metro_pack  # read by benchmarks/ledger
