#!/usr/bin/env python3
"""Regenerate the paper's evaluation: Figs. 1–18, Table 1, §6.5, §6.6 and
Theorem 3.1, one row of :data:`ROWS` each.

A row runs rows of :data:`repro.experiments.figures.FIGURES` (the cells of a
figure, sized so the whole card takes about a minute) and plain calls (the
three experiments that run no cells), prints its tables and checks the
paper's claims, each a named predicate over what it ran::

    PYTHONPATH=src python tools/reproduce.py              # every row
    PYTHONPATH=src python tools/reproduce.py fig09 table1
    PYTHONPATH=src python tools/reproduce.py --list       # build every row's cells

Every row runs inside one ``SweepExecutor``, so ``REPRO_JOBS`` (workers, one
pool for the whole run), ``REPRO_CACHE_DIR`` (result cache) and
``REPRO_SEEDS`` (several seeds: across-seed means, ``_ci95`` columns) apply
as to any sweep.  A figure comes back as ``{key: value}`` per cell: the
cell's result, or under several seeds the ``SeedResultSet`` of its per-seed
results, read as across-seed means.  Each row prints its tables, the
executor line of every figure it ran, its wall time and one PASS/FAIL line
per check.  The exit status is 0 only when every check of every selected row
passed.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.fairness import jain_fairness_index  # noqa: E402
from repro.analysis.metrics import is_outside_frontier, pareto_frontier  # noqa: E402
from repro.experiments.feedback import marking_burstiness  # noqa: E402
from repro.experiments.figures import (FIG8_PANELS, FIG12_LOADS,  # noqa: E402
                                       FIG12_STRATEGIES, FIGURES, run_figure)
from repro.experiments.runner import (by_scheme, normalized_table,  # noqa: E402
                                      sweep_averages)
from repro.experiments.scenario_spec import ScenarioSpec, build  # noqa: E402
from repro.experiments.stability_eval import fluid_stability_sweep  # noqa: E402
from repro.experiments.wifi_eval import fig4_inter_ack  # noqa: E402
from repro.runtime.executor import SweepExecutor  # noqa: E402


class Row(NamedTuple):
    """``runs``: ``FIGURES`` ids, or plain calls for what runs no cells.
    ``tables`` and each check see their results (a tuple when a row runs
    several); ``tables`` returns ``(title, rows[, columns])`` tables and
    lines to print."""
    id: str
    runs: Sequence
    tables: Callable[[Any], List]
    checks: Dict[str, Callable[[Any], bool]]


def print_table(title: str, rows: Sequence[Mapping],
                columns: Optional[Sequence[str]] = None) -> None:
    """Print rows as a fixed-width table (columns: the first row's keys by
    default), floats to three decimals."""
    columns = list(rows[0]) if columns is None else columns
    print(f"\n=== {title} ===")
    print("  ".join(f"{col:>18s}" for col in columns))
    for row in rows:
        print("  ".join(f"{value:>18.3f}" if isinstance(value, float)
                        else f"{str(value):>18s}"
                        for value in (row.get(col, "") for col in columns)))


def title(figure_id: str, detail: str = "") -> str:
    return FIGURES[figure_id].label + detail


def with_ci(row: dict, value: Any, metrics: Sequence[str]) -> dict:
    """``row`` plus ``<metric>_ci95`` columns when ``value`` carries
    across-seed aggregates (several seeds)."""
    agg = getattr(value, "agg", None)
    return {**row, **{f"{m}_ci95": agg(m).ci95 for m in metrics}} if agg else row


def averages(figure_id: str, *columns: str):
    """A sweep's per-scheme averages, with each metric's ``_ci95`` column
    when the rows carry one (several seeds)."""
    def tables(cells):
        rows = sweep_averages(by_scheme(cells))
        return [(title(figure_id), rows, [name for col in ("scheme", *columns)
                                          for name in (col, f"{col}_ci95")
                                          if name == col or name in rows[0]])]
    return tables


def table1(cells) -> List[dict]:
    """The §1 summary table: throughput and p95 delay normalised to ABC."""
    return normalized_table(sweep_averages(by_scheme(cells)), reference="abc")


def series_table(figure_id: str, *columns: str):
    return lambda cells: [(title(figure_id), [
        {"scheme": scheme, "utilization": ts.utilization,
         "queuing_p95_ms": ts.queuing_p95_ms,
         "mean_throughput_mbps": ts.mean_throughput_mbps}
        for scheme, ts in cells.items()], ["scheme", *columns])]


def wifi_table(title: str, rows: Mapping, *columns: str) -> tuple:
    return (title, [{"scheme": name, **{c: getattr(r, c) for c in columns}}
                    for name, r in rows.items()])


def part(cells, first) -> dict:
    """The cells keyed ``(first, name)``, keyed ``name``."""
    return {name: r for (k, name), r in cells.items() if k == first}


def abc_outside_frontier(points: Mapping) -> bool:
    """ABC sits outside the delay/utilisation Pareto frontier of every
    other scheme (Fig. 8)."""
    frontier = pareto_frontier((scheme, r.delay_p95_ms, r.utilization)
                               for scheme, r in points.items()
                               if scheme != "abc")
    abc = points["abc"]
    return is_outside_frontier((abc.delay_p95_ms, abc.utilization),
                               [(delay, util) for _, delay, util in frontier])


def pareto_tables(cells) -> List:
    out = []
    for name in FIG8_PANELS:
        points = part(cells, name)
        out += [(title("fig08", f" ({name})"), [with_ci(
            {"scheme": scheme, "delay_p95_ms": r.delay_p95_ms,
             "utilization": r.utilization,
             "throughput_mbps": r.throughput_bps / 1e6},
            r, ("delay_p95_ms", "utilization"))
            for scheme, r in sorted(points.items(),
                                    key=lambda item: item[1].delay_p95_ms)]),
            f"  ABC outside prior-scheme Pareto frontier: "
            f"{abc_outside_frontier(points)}"]
    return out


def steady_jain(cell) -> float:
    return jain_fairness_index([max(t / 1e6, 1e-9)
                                for t in cell.throughputs_bps])


def delay_ratio(cells) -> float:
    """enqueue p95 / dequeue p95 — the paper reports ≈ 2×."""
    dequeue = cells["dequeue"].queuing_p95_ms
    return (cells["enqueue"].queuing_p95_ms / dequeue if dequeue > 0
            else float("inf"))


# Views: a figure as {scheme: row}; ``dict`` is a scheme-keyed figure's own.
def avg(cells):
    return {row["scheme"]: row for row in sweep_averages(by_scheme(cells))}


def norm(cells):
    return {row["scheme"]: row for row in table1(cells)}


def exceeds(view: Callable, metric: str, a: str, factor: float, b: str):
    """The check ``view(result)[a].metric > factor × view(result)[b].metric``
    (a view's rows are table dicts or results)."""
    def read(row: Any) -> float:
        return row[metric] if isinstance(row, dict) else getattr(row, metric)

    return lambda result: (lambda v: read(v[a]) > factor * read(v[b]))(view(result))


ROWS: List[Row] = [
    Row("fig01", ["fig01"],
        series_table("fig01", "utilization", "queuing_p95_ms",
                     "mean_throughput_mbps"),
        {"abc_queuing_p95_below_cubic": exceeds(dict, "queuing_p95_ms",
                                                "cubic", 1, "abc")}),
    Row("fig02", ["fig02"],
        lambda c: [(title("fig02"), [
            {"basis": "dequeue (ABC)",
             "queuing_p95_ms": c["dequeue"].queuing_p95_ms,
             "utilization": c["dequeue"].utilization},
            {"basis": "enqueue (prior work)",
             "queuing_p95_ms": c["enqueue"].queuing_p95_ms,
             "utilization": c["enqueue"].utilization},
            {"basis": "delay ratio", "queuing_p95_ms": delay_ratio(c),
             "utilization": 0.0}])],
        {"enqueue_delay_over_1.4x_dequeue": lambda c: delay_ratio(c) > 1.4}),
    Row("fig03", ["fig03"],
        lambda c: [(title("fig03"), [
            {"variant": variant, "jain_index": steady_jain(c[ai]),
             "per_flow_mbps": " ".join(f"{t / 1e6:.1f}"
                                       for t in c[ai].throughputs_bps)}
            for variant, ai in (("ABC w/o AI (Fig. 3a)", False),
                                ("ABC with AI (Fig. 3b)", True))])],
        {"jain_with_ai_above_0.9": lambda c: steady_jain(c[True]) > 0.9,
         "ai_improves_jain": lambda c: steady_jain(c[True])
         > steady_jain(c[False])}),
    Row("fig04", [partial(fig4_inter_ack, mcs_index=5, duration=20.0)],
        lambda s: [("Fig. 4 — inter-ACK time vs batch size", [{
            "observations": float(s.batch_sizes.size),
            "fitted_slope_ms_per_frame": s.fitted_slope_ms_per_frame,
            "expected_slope_ms_per_frame": s.expected_slope_ms_per_frame,
            "max_inter_ack_ms": float(s.inter_ack_times_ms.max())}])],
        {"fitted_slope_within_40pct_of_expected": lambda s: abs(
            s.fitted_slope_ms_per_frame - s.expected_slope_ms_per_frame)
            < 0.4 * s.expected_slope_ms_per_frame}),
    Row("fig05", ["fig05"],
        lambda c: [(title("fig05"), [
            {"mcs": p.mcs_index, "offered_mbps": p.offered_load_mbps,
             "true_mbps": p.true_capacity_mbps, "predicted_mbps": p.predicted_mbps,
             "error_pct": p.relative_error * 100.0} for p in c.values()])],
        # The paper: within ~5 % of ground truth once the offered load
        # provides enough batches to observe.
        {"error_below_10pct_at_half_load_or_more": lambda c: all(
            p.relative_error < 0.10 for p in c.values()
            if p.offered_load_mbps >= 0.5 * p.true_capacity_mbps)}),
    Row("fig06", ["fig06"],
        lambda c: [(title("fig06"), [{
            "mean_tracking_error": t.tracking_error,
            "max_queuing_ms": float(t.queuing_delay_ms.max()),
            "max_w_abc": float(t.w_abc.max()),
            "max_w_cubic": float(t.w_cubic.max())} for t in c.values()])],
        {"tracking_error_below_0.3": lambda c: c["fig6"].tracking_error < 0.3}),
    Row("fig07", ["fig07"],
        lambda c: [(title("fig07"), [{
            "mean_abc_mbps": r.mean_abc_mbps, "mean_cubic_mbps": r.mean_cubic_mbps,
            "throughput_gap": r.throughput_gap,
            "abc_queuing_p95_ms": r.abc_queuing_p95_ms,
            "cubic_queuing_p95_ms": r.cubic_queuing_p95_ms} for r in c.values()])],
        {"throughput_gap_below_0.25": lambda c: abs(c["fig7"].throughput_gap) < 0.25,
         "abc_queuing_p95_below_cubic": lambda c: c["fig7"].abc_queuing_p95_ms
         < c["fig7"].cubic_queuing_p95_ms}),
    Row("fig08", ["fig08"], pareto_tables,
        {"abc_outside_downlink_frontier": lambda c:
         abc_outside_frontier(part(c, "downlink"))}),
    Row("fig09", ["fig09"],
        lambda c: averages("fig09", "utilization", "delay_p95_ms",
                           "delay_mean_ms", "queuing_p95_ms")(c)
        + [("Table 1 (§1) — normalised to ABC", table1(c),
            ["scheme", "norm_throughput", "norm_delay_p95"])],
        {"abc_utilization_over_1.2x_cubic+codel": exceeds(
            avg, "utilization", "abc", 1.2, "cubic+codel"),
         "cubic_delay_p95_over_2x_abc": exceeds(avg, "delay_p95_ms", "cubic", 2.0, "abc")}),
    Row("fig10", ["fig10"],
        lambda c: [wifi_table(title("fig10", f" ({label})"), part(c, users),
                              "throughput_mbps", "delay_p95_ms", "queuing_p95_ms")
                   for label, users in (("single user", 1), ("two users", 2))],
        {"abc_dt100_throughput_above_cubic+codel": exceeds(
            lambda c: part(c, 1), "throughput_mbps", "abc_dt100", 1,
            "cubic+codel"),
         "abc_dt100_queuing_p95_below_cubic": exceeds(
            lambda c: part(c, 1), "queuing_p95_ms", "cubic", 1,
            "abc_dt100")}),
    Row("fig11", ["fig11"],
        lambda c: [(title("fig11"), [{
            "mean_tracking_error": t.tracking_error,
            "mean_throughput_mbps": float(t.throughput_mbps.mean()),
            "max_queuing_ms": float(t.queuing_delay_ms.max())} for t in c.values()])],
        {"tracking_error_below_0.45": lambda c: c["fig11"].tracking_error < 0.45}),
    Row("fig12", ["fig12"],
        lambda c: [(title("fig12"), [
            {"strategy": name, "offered_load": load,
             "abc_mbps": c[strategy, load].mean_abc_mbps,
             "cubic_mbps": c[strategy, load].mean_cubic_mbps,
             "gap": c[strategy, load].throughput_gap}
            for load in FIG12_LOADS
            for name, strategy in zip(("max-min (ABC)", "zombie list (RCP)"),
                                      FIG12_STRATEGIES)])],
        {"maxmin_gap_within_zombie_gap_plus_0.05": lambda c: all(
            abs(c["maxmin", load].throughput_gap)
            <= abs(c["zombie", load].throughput_gap) + 0.05
            for load in FIG12_LOADS)}),
    Row("fig13", ["fig13"],
        lambda c: [(title("fig13"), [{
            "utilization": r.utilization, "queuing_p95_ms": r.queuing_p95_ms,
            "backlogged_mbps": r.backlogged_throughput_mbps,
            "app_limited_agg_mbps": r.app_limited_aggregate_mbps}
            for r in c.values()])],
        {"utilization_above_0.6": lambda c: c["fig13"].utilization > 0.6,
         "queuing_p95_below_300ms": lambda c: c["fig13"].queuing_p95_ms < 300.0}),
    Row("fig14", ["fig14"],
        lambda c: [wifi_table(title("fig14"), c, "throughput_mbps", "delay_p95_ms")],
        {"abc_dt100_throughput_above_cubic+codel": exceeds(
            dict, "throughput_mbps", "abc_dt100", 1, "cubic+codel")}),
    Row("fig15", ["fig15"],
        averages("fig15", "utilization", "delay_mean_ms"),
        {"cubic_delay_mean_over_1.5x_abc": exceeds(avg, "delay_mean_ms", "cubic", 1.5, "abc"),
         "bbr_delay_mean_above_abc": exceeds(avg, "delay_mean_ms", "bbr", 1, "abc")}),
    Row("fig16", ["fig16"],
        averages("fig16", "utilization", "delay_p95_ms", "queuing_p95_ms"),
        # Appendix D: ABC ≈ XCPw in utilisation, clearly above RCP and VCP.
        {"abc_utilization_over_1.1x_rcp": exceeds(avg, "utilization", "abc", 1.1, "rcp"),
         "abc_utilization_over_1.1x_vcp": exceeds(avg, "utilization", "abc", 1.1, "vcp"),
         "xcp_delay_p95_above_abc": exceeds(avg, "delay_p95_ms", "xcp", 1, "abc")}),
    Row("fig17", ["fig17"], series_table("fig17", "utilization", "queuing_p95_ms"),
        # ABC and XCPw track the square wave closely; RCP is visibly slower.
        {"abc_utilization_above_rcp": exceeds(dict, "utilization", "abc", 1, "rcp"),
         "xcpw_utilization_above_rcp": exceeds(dict, "utilization", "xcpw", 1, "rcp")}),
    Row("fig18", ["fig18"],
        lambda c: [(title("fig18"), [with_ci(
            {"rtt_ms": rtt * 1000.0, "scheme": scheme, "utilization": r.utilization,
             "queuing_p95_ms": r.queuing_p95_ms}, r, ("utilization", "queuing_p95_ms"))
            for (rtt, scheme), r in c.items()])],
        {"abc_queuing_p95_below_cubic_at_every_rtt": lambda c: all(
            r.queuing_p95_ms < c[rtt, "cubic"].queuing_p95_ms
            for (rtt, scheme), r in c.items() if scheme == "abc"),
         "abc_utilization_over_0.9x_cubic+codel_at_every_rtt": lambda c: all(
            r.utilization > 0.9 * c[rtt, "cubic+codel"].utilization
            for (rtt, scheme), r in c.items() if scheme == "abc")}),
    Row("table1", ["table1"],
        lambda c: [(title("table1"), table1(c),
                    ["scheme", "norm_throughput", "norm_delay_p95"])],
        {"abc_norm_throughput_is_1": lambda c: norm(c)["abc"]["norm_throughput"] == 1.0,
         "cubic_norm_delay_p95_over_2": lambda c: norm(c)["cubic"]["norm_delay_p95"] > 2.0,
         "cubic+codel_norm_throughput_below_0.9": lambda c:
         norm(c)["cubic+codel"]["norm_throughput"] < 0.9}),
    Row("jain", ["jain"],
        lambda c: [(title("jain"), [{"flows": n, "jain_index": steady_jain(cell)}
                                    for n, cell in c.items()])],
        {"jain_above_0.93_for_every_count": lambda c: all(
            steady_jain(cell) > 0.93 for cell in c.values())}),
    Row("marking", [partial(marking_burstiness, fraction=0.4, packets=20_000)],
        lambda s: [("Algorithm 1 ablation — marking burstiness at f = 0.4", [s],
                    ["token_gap_variance", "probabilistic_gap_variance",
                     "token_fraction", "probabilistic_fraction"])],
        {"token_gaps_steadier_than_probabilistic": lambda s:
         s["token_gap_variance"] < s["probabilistic_gap_variance"]}),
    Row("pk_abc", ["pk_abc"],
        lambda c: [(title("pk_abc"), [
            {"variant": variant, "utilization": c[key].utilization,
             "queuing_p95_ms": c[key].queuing_p95_ms}
            for variant, key in (("ABC", "abc"), ("PK-ABC", "pk-abc"))])],
        {"pk_queuing_p95_below_abc": lambda c: c["pk-abc"].queuing_p95_ms
         < c["abc"].queuing_p95_ms,
         "pk_utilization_over_0.9x_abc": lambda c: c["pk-abc"].utilization
         > 0.9 * c["abc"].utilization}),
    Row("stability", [fluid_stability_sweep, "stability"],
        lambda r: [
            ("Theorem 3.1 — fluid-model sweep (τ = 100 ms)", [
                {"delta_over_tau": ratio, "theory_stable": p.theoretically_stable,
                 "fluid_converged": p.fluid_converged,
                 "oscillation_ms": p.fluid_oscillation_s * 1000.0}
                for ratio, p in r[0].items()]),
            (title("stability"), [
                {"delta_s": delta, "utilization": ts.utilization,
                 "queuing_p95_ms": ts.queuing_p95_ms,
                 "queuing_std_ms": (float(np.std(ts.queuing_delay_ms))
                                    if ts.queuing_delay_ms.size else 0.0)}
                for delta, ts in r[1].items()])],
        # Every δ/τ ratio above the bound must converge in the fluid model.
        {"fluid_converges_above_the_bound": lambda r: all(
            p.fluid_converged for p in r[0].values() if p.theoretically_stable)}),
]


def run_row(row: Row, executor: SweepExecutor) -> List[str]:
    """Run one row and print it; returns the names of its failed checks."""
    start, results = time.perf_counter(), []
    for run in row.runs:
        if callable(run):
            results.append(run())
            continue
        results.append(run_figure(FIGURES[run], executor))
        stats = executor.last_stats
        print(f"  [executor] workers={stats.workers} total={stats.total} "
              f"executed={stats.executed} cache_hits={stats.cache_hits} "
              f"wall={stats.wall_seconds:.2f}s")
    result = results[0] if len(results) == 1 else tuple(results)
    for item in row.tables(result):
        print(item) if isinstance(item, str) else print_table(*item)
    print(f"\n  [{row.id}] wall={time.perf_counter() - start:.2f}s")
    failed = []
    for name, check in row.checks.items():
        passed = bool(check(result))
        print(f"  {'PASS' if passed else 'FAIL'}  {row.id}.{name}")
        failed += [] if passed else [f"{row.id}.{name}"]
    return failed


def list_rows() -> None:
    """Build every figure's cells at its default seed, scenarios wired but
    not run: print each row id, its cells' summaries and its cell count."""
    for row in ROWS:
        for run in row.runs:
            if callable(run):
                name = getattr(run, "func", run).__name__
                print(f"{row.id:10s} {name} (runs no cells)")
                continue
            figure = FIGURES[run]
            jobs = list(figure.cells(figure.seed).values())
            for job in jobs:
                build(ScenarioSpec.from_jsonable(job.kwargs["spec"]))
            summaries = sorted({job.kwargs["summary"] for job in jobs})
            print(f"{row.id:10s} {' '.join(summaries)} ({len(jobs)} cells)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's figures "
                                     "and tables and check its claims.")
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="rows to run (default: every row)")
    parser.add_argument("--list", action="store_true",
                        help="build every row's cells and print the row ids, "
                        "summaries and cell counts")
    args = parser.parse_args(argv)
    rows = {row.id: row for row in ROWS}
    unknown = sorted(set(args.ids) - set(rows))
    if unknown:
        parser.error(f"unknown row id(s) {', '.join(unknown)}; known: {' '.join(rows)}")
    if args.list:
        list_rows()
        return 0
    selected = [rows[i] for i in args.ids] if args.ids else ROWS
    failed, checks, start = [], 0, time.perf_counter()
    with SweepExecutor() as executor:
        for row in selected:
            print(f"\n##### {row.id}")
            checks += len(row.checks)
            try:
                failed += run_row(row, executor)
            except Exception:
                traceback.print_exc()
                print(f"  FAIL  {row.id} raised")
                failed += [f"{row.id}.{name} (raised)" for name in row.checks]
    print(f"\n{checks - len(failed)}/{checks} checks passed in {len(selected)} rows, "
          f"{time.perf_counter() - start:.1f}s wall"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
