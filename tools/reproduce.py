#!/usr/bin/env python3
"""Regenerate the paper's evaluation: Figs. 1–18, Table 1, §6.5, §6.6 and
Theorem 3.1, one row of :data:`ROWS` each.

A row names the entry points it calls (with arguments that size the whole
run to about a minute), the tables it prints and the paper's claims it
checks, each a named predicate over the entry points' results::

    PYTHONPATH=src python tools/reproduce.py              # every row
    PYTHONPATH=src python tools/reproduce.py fig09 table1
    PYTHONPATH=src python tools/reproduce.py --list       # import every entry point

Every row runs inside one ``SweepExecutor``, so ``REPRO_JOBS`` (workers, one
pool for the whole run), ``REPRO_CACHE_DIR`` (result cache) and
``REPRO_SEEDS`` (several seeds: across-seed means, ``_ci95`` columns) apply
as to any sweep.  Each row prints its tables, the executor line of every call
that ran through the executor, its wall time and one PASS/FAIL line per
check.  The exit status is 0 only when every check of every selected row
passed.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from pathlib import Path
from pkgutil import resolve_name
from typing import Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.experiments.pareto import table1_summary  # noqa: E402
from repro.experiments.runner import sweep_averages  # noqa: E402
from repro.experiments.timeseries import summarize_timeseries  # noqa: E402
from repro.runtime.executor import SweepExecutor  # noqa: E402

#: Placeholder in a call's arguments for the run's one executor.
EXECUTOR = object()
SCHEMES = ("abc", "xcp", "xcpw", "cubic+codel", "cubic+pie", "copa", "sprout",
           "vegas", "verus", "bbr", "pcc", "cubic")
FIG12_LOADS = (0.125, 0.25)
FIG18_RTTS = (0.02, 0.05, 0.1, 0.2)


class Row(NamedTuple):
    """``calls``: ``("module:function", kwargs)`` pairs.  ``tables`` and each
    check see their result (a tuple when a row makes several calls);
    ``tables`` returns ``(title, rows[, columns])`` tables and lines to print."""
    id: str
    calls: Sequence[tuple]
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


def with_ci(row: dict, stats: Optional[Callable], metrics: Sequence[str]) -> dict:
    """``row`` plus ``<metric>_ci95`` columns when ``stats`` (a metric's
    across-seed aggregate, present under several seeds) is given."""
    return {**row, **{f"{m}_ci95": stats(m).ci95 for m in metrics}} if stats else row


def averages(title: str, *columns: str):
    """A sweep's per-scheme averages, with each metric's ``_ci95`` column
    when the rows carry one (multi-seed sweeps)."""
    def tables(sweep):
        rows = sweep_averages(sweep)
        return [(title, rows, [name for col in ("scheme", *columns)
                               for name in (col, f"{col}_ci95")
                               if name == col or name in rows[0]])]
    return tables


def pareto_tables(panels) -> List:
    out = []
    for label, scatter in panels.items():
        stats = scatter.point_stats
        out += [(f"Fig. 8 ({label})", [with_ci(
            {"scheme": p.scheme, "delay_p95_ms": p.delay_p95_ms,
             "utilization": p.utilization, "throughput_mbps": p.throughput_mbps},
            stats and stats[p.scheme].__getitem__, ("delay_p95_ms", "utilization"))
            for p in sorted(scatter.points, key=lambda p: p.delay_p95_ms)]),
            f"  ABC outside prior-scheme Pareto frontier: "
            f"{scatter.abc_outside_frontier()}"]
    return out


def wifi_table(title: str, rows, *columns: str) -> tuple:
    return (title, [{"scheme": r.scheme, **{c: getattr(r, c) for c in columns}}
                    for r in rows])


# Views: a result as {scheme: {metric: value}}.
def avg(sweep):
    return {row["scheme"]: row for row in sweep_averages(sweep)}


def norm(sweep):
    return {row["scheme"]: row for row in table1_summary(sweep)}


def series(result):
    return {row["scheme"]: row for row in summarize_timeseries(result)}


def wifi(rows):
    return {row.scheme: {m: getattr(row, m) for m in ("throughput_mbps", "queuing_p95_ms")}
            for row in rows}


def exceeds(view: Callable, metric: str, a: str, factor: float, b: str):
    """The check ``view(result)[a][metric] > factor × view(result)[b][metric]``."""
    return lambda result: (lambda v: v[a][metric] > factor * v[b][metric])(view(result))


ROWS: List[Row] = [
    Row("fig01", [("repro.experiments.timeseries:fig1_timeseries", dict(
            schemes=("cubic", "verus", "cubic+codel", "abc"), duration=15.0,
            executor=EXECUTOR))],
        lambda s: [("Fig. 1 — scheme behaviour on the showcase LTE trace",
                    summarize_timeseries(s), ["scheme", "utilization", "queuing_p95_ms",
                                              "mean_throughput_mbps"])],
        {"abc_queuing_p95_below_cubic": exceeds(series, "queuing_p95_ms", "cubic", 1, "abc")}),
    Row("fig02", [("repro.experiments.feedback:fig2_feedback",
                   dict(duration=30.0, executor=EXECUTOR))],
        lambda c: [("Fig. 2 — feedback basis ablation", [
            {"basis": "dequeue (ABC)", "queuing_p95_ms": c.dequeue_queuing_p95_ms,
             "utilization": c.dequeue_utilization},
            {"basis": "enqueue (prior work)", "queuing_p95_ms": c.enqueue_queuing_p95_ms,
             "utilization": c.enqueue_utilization},
            {"basis": "delay ratio", "queuing_p95_ms": c.delay_ratio, "utilization": 0.0}])],
        {"enqueue_delay_over_1.4x_dequeue": lambda c: c.delay_ratio > 1.4}),
    Row("fig03", [("repro.experiments.fairness:fig3_fairness", dict(
            additive_increase=ai, num_flows=5, stagger=12.0, executor=EXECUTOR))
            for ai in (False, True)],
        lambda r: [("Fig. 3 — additive increase and fairness", [
            {"variant": variant, "jain_index": f.steady_state_jain, "per_flow_mbps": " ".join(
                f"{t:.1f}" for t in f.steady_state_throughputs_mbps)}
            for variant, f in zip(("ABC w/o AI (Fig. 3a)", "ABC with AI (Fig. 3b)"), r)])],
        {"jain_with_ai_above_0.9": lambda r: r[1].steady_state_jain > 0.9,
         "ai_improves_jain": lambda r: r[1].steady_state_jain > r[0].steady_state_jain}),
    Row("fig04", [("repro.experiments.wifi_eval:fig4_inter_ack",
                   dict(mcs_index=5, duration=20.0))],
        lambda s: [("Fig. 4 — inter-ACK time vs batch size", [{
            "observations": float(s.batch_sizes.size),
            "fitted_slope_ms_per_frame": s.fitted_slope_ms_per_frame,
            "expected_slope_ms_per_frame": s.expected_slope_ms_per_frame,
            "max_inter_ack_ms": float(s.inter_ack_times_ms.max())}])],
        {"fitted_slope_within_40pct_of_expected": lambda s: abs(
            s.fitted_slope_ms_per_frame - s.expected_slope_ms_per_frame)
            < 0.4 * s.expected_slope_ms_per_frame}),
    Row("fig05", [("repro.experiments.wifi_eval:fig5_rate_prediction", dict(
            mcs_indices=(3, 5, 7), load_fractions=(0.4, 0.6, 0.8, 1.0), duration=15.0,
            executor=EXECUTOR))],
        lambda points: [("Fig. 5 — WiFi link-rate prediction", [
            {"mcs": p.mcs_index, "offered_mbps": p.offered_load_mbps,
             "true_mbps": p.true_capacity_mbps, "predicted_mbps": p.predicted_mbps,
             "error_pct": p.relative_error * 100.0} for p in points])],
        # The paper: within ~5 % of ground truth once the offered load
        # provides enough batches to observe.
        {"error_below_10pct_at_half_load_or_more": lambda points: all(
            p.relative_error < 0.10 for p in points
            if p.offered_load_mbps >= 0.5 * p.true_capacity_mbps)}),
    Row("fig06", [("repro.experiments.coexistence:fig6_nonabc_bottleneck",
                   dict(duration=40.0, executor=EXECUTOR))],
        lambda t: [("Fig. 6 — ABC across wireless(ABC)+wired(drop-tail) bottlenecks", [{
            "mean_tracking_error": t.tracking_error,
            "max_queuing_ms": float(t.queuing_delay_ms.max()),
            "max_w_abc": float(t.w_abc.max()), "max_w_cubic": float(t.w_cubic.max())}])],
        {"tracking_error_below_0.3": lambda t: t.tracking_error < 0.3}),
    Row("fig07", [("repro.experiments.coexistence:fig7_coexistence_timeseries",
                   dict(duration=120.0, stagger=30.0, executor=EXECUTOR))],
        lambda r: [("Fig. 7 — ABC vs Cubic on an ABC bottleneck", [{
            "mean_abc_mbps": r.mean_abc_mbps, "mean_cubic_mbps": r.mean_cubic_mbps,
            "throughput_gap": r.throughput_gap, "abc_queuing_p95_ms": r.abc_queuing_p95_ms,
            "cubic_queuing_p95_ms": r.cubic_queuing_p95_ms}])],
        {"throughput_gap_below_0.25": lambda r: abs(r.throughput_gap) < 0.25,
         "abc_queuing_p95_below_cubic": lambda r: r.abc_queuing_p95_ms
         < r.cubic_queuing_p95_ms}),
    Row("fig08", [("repro.experiments.pareto:fig8_pareto", dict(
            schemes=("abc", "cubic", "cubic+codel", "copa", "vegas", "bbr", "sprout",
                     "verus", "pcc", "xcp"), duration=15.0, executor=EXECUTOR))],
        pareto_tables,
        {"abc_outside_downlink_frontier": lambda panels:
         panels["downlink"].abc_outside_frontier()}),
    Row("fig09", [("repro.experiments.pareto:fig9_sweep",
                   dict(schemes=SCHEMES, duration=15.0, executor=EXECUTOR))],
        lambda s: averages("Fig. 9 — averages across 8 cellular traces", "utilization",
                           "delay_p95_ms", "delay_mean_ms", "queuing_p95_ms")(s)
        + [("Table 1 (§1) — normalised to ABC", table1_summary(s),
            ["scheme", "norm_throughput", "norm_delay_p95"])],
        {"abc_utilization_over_1.2x_cubic+codel": exceeds(
            avg, "utilization", "abc", 1.2, "cubic+codel"),
         "cubic_delay_p95_over_2x_abc": exceeds(avg, "delay_p95_ms", "cubic", 2.0, "abc")}),
    Row("fig10", [("repro.experiments.wifi_eval:fig10_wifi", dict(
            num_users=users, duration=20.0, abc_delay_thresholds=thresholds,
            executor=EXECUTOR)) for users, thresholds in ((1, (0.02, 0.06, 0.1)),
                                                          (2, (0.06,)))],
        lambda r: [wifi_table(f"Fig. 10 ({label})", rows, "throughput_mbps",
                              "delay_p95_ms", "queuing_p95_ms")
                   for label, rows in zip(("single user", "two users"), r)],
        {"abc_dt100_throughput_above_cubic+codel": exceeds(
            lambda r: wifi(r[0]), "throughput_mbps", "abc_dt100", 1, "cubic+codel"),
         "abc_dt100_queuing_p95_below_cubic": exceeds(
            lambda r: wifi(r[0]), "queuing_p95_ms", "cubic", 1, "abc_dt100")}),
    Row("fig11", [("repro.experiments.coexistence:fig11_cross_traffic",
                   dict(duration=45.0, executor=EXECUTOR))],
        lambda t: [("Fig. 11 — ABC with on-off cross traffic on the wired hop", [{
            "mean_tracking_error": t.tracking_error,
            "mean_throughput_mbps": float(t.throughput_mbps.mean()),
            "max_queuing_ms": float(t.queuing_delay_ms.max())}])],
        {"tracking_error_below_0.45": lambda t: t.tracking_error < 0.45}),
    Row("fig12", [("repro.experiments.coexistence:fig12_offered_load_sweep", dict(
            loads=FIG12_LOADS, strategy=strategy, duration=30.0, executor=EXECUTOR))
            for strategy in ("maxmin", "zombie")],
        lambda r: [("Fig. 12 — long-flow throughput under short-flow load", [
            {"strategy": name, "offered_load": load, "abc_mbps": sweep[load].mean_abc_mbps,
             "cubic_mbps": sweep[load].mean_cubic_mbps, "gap": sweep[load].throughput_gap}
            for load in FIG12_LOADS
            for name, sweep in zip(("max-min (ABC)", "zombie list (RCP)"), r)])],
        {"maxmin_gap_within_zombie_gap_plus_0.05": lambda r: all(
            abs(r[0][load].throughput_gap) <= abs(r[1][load].throughput_gap) + 0.05
            for load in FIG12_LOADS)}),
    Row("fig13", [("repro.experiments.coexistence:fig13_app_limited",
                   dict(num_app_limited=30, duration=20.0, executor=EXECUTOR))],
        lambda r: [("Fig. 13 — one backlogged + many application-limited ABC flows", [{
            "utilization": r.utilization, "queuing_p95_ms": r.queuing_p95_ms,
            "backlogged_mbps": r.backlogged_throughput_mbps,
            "app_limited_agg_mbps": r.app_limited_aggregate_mbps}])],
        {"utilization_above_0.6": lambda r: r.utilization > 0.6,
         "queuing_p95_below_300ms": lambda r: r.queuing_p95_ms < 300.0}),
    Row("fig14", [("repro.experiments.wifi_eval:fig14_wifi_brownian",
                   dict(num_users=1, duration=20.0, executor=EXECUTOR))],
        lambda rows: [wifi_table("Fig. 14 — WiFi, Brownian MCS walk", rows,
                                 "throughput_mbps", "delay_p95_ms")],
        {"abc_dt100_throughput_above_cubic+codel": exceeds(
            wifi, "throughput_mbps", "abc_dt100", 1, "cubic+codel")}),
    Row("fig15", [("repro.experiments.pareto:fig9_sweep", dict(
            schemes=("abc", "xcpw", "cubic+codel", "copa", "vegas", "bbr", "cubic"),
            duration=15.0, executor=EXECUTOR,
            trace_names=("Verizon-LTE-1", "Verizon-LTE-2", "ATT-LTE-1", "TMobile-LTE-1")))],
        averages("Fig. 15 — mean per-packet delay (4-trace subset)", "utilization",
                 "delay_mean_ms"),
        {"cubic_delay_mean_over_1.5x_abc": exceeds(avg, "delay_mean_ms", "cubic", 1.5, "abc"),
         "bbr_delay_mean_above_abc": exceeds(avg, "delay_mean_ms", "bbr", 1, "abc")}),
    Row("fig16", [("repro.experiments.pareto:fig16_explicit", dict(
            duration=15.0, executor=EXECUTOR,
            trace_names=("Verizon-LTE-1", "Verizon-LTE-3", "ATT-LTE-1", "TMobile-LTE-2")))],
        averages("Fig. 16 — explicit schemes (4-trace subset)", "utilization",
                 "delay_p95_ms", "queuing_p95_ms"),
        # Appendix D: ABC ≈ XCPw in utilisation, clearly above RCP and VCP.
        {"abc_utilization_over_1.1x_rcp": exceeds(avg, "utilization", "abc", 1.1, "rcp"),
         "abc_utilization_over_1.1x_vcp": exceeds(avg, "utilization", "abc", 1.1, "vcp"),
         "xcp_delay_p95_above_abc": exceeds(avg, "delay_p95_ms", "xcp", 1, "abc")}),
    Row("fig17", [("repro.experiments.timeseries:fig17_square_wave", dict(
            schemes=("abc", "rcp", "xcpw"), duration=10.0, executor=EXECUTOR))],
        lambda s: [("Fig. 17 — square-wave link (12↔24 Mbit/s every 500 ms)",
                    summarize_timeseries(s), ["scheme", "utilization", "queuing_p95_ms"])],
        # ABC and XCPw track the square wave closely; RCP is visibly slower.
        {"abc_utilization_above_rcp": exceeds(series, "utilization", "abc", 1, "rcp"),
         "xcpw_utilization_above_rcp": exceeds(series, "utilization", "xcpw", 1, "rcp")}),
    Row("fig18", [("repro.experiments.pareto:fig18_rtt_sensitivity", dict(
            schemes=("abc", "cubic+codel", "cubic", "bbr"), rtts=FIG18_RTTS,
            duration=15.0, executor=EXECUTOR))],
        lambda r: [("Fig. 18 — propagation-delay sensitivity", [with_ci(
            {"rtt_ms": rtt * 1000.0, "scheme": scheme, "utilization": res.utilization,
             "queuing_p95_ms": res.queuing_p95_ms}, getattr(res, "agg", None),
            ("utilization", "queuing_p95_ms"))   # several seeds: a SeedResultSet
            for rtt, per_scheme in r.items() for scheme, res in per_scheme.items()])],
        {"abc_queuing_p95_below_cubic_at_every_rtt": lambda r: all(
            r[rtt]["abc"].queuing_p95_ms < r[rtt]["cubic"].queuing_p95_ms
            for rtt in FIG18_RTTS),
         "abc_utilization_over_0.9x_cubic+codel_at_every_rtt": lambda r: all(
            r[rtt]["abc"].utilization > 0.9 * r[rtt]["cubic+codel"].utilization
            for rtt in FIG18_RTTS)}),
    Row("table1", [("repro.experiments.pareto:fig9_sweep", dict(
            schemes=SCHEMES, duration=15.0, executor=EXECUTOR,
            trace_names=("Verizon-LTE-1", "TMobile-LTE-1")))],
        lambda s: [("Table 1 — normalised to ABC (2-trace subset)", table1_summary(s),
                    ["scheme", "norm_throughput", "norm_delay_p95"])],
        {"abc_norm_throughput_is_1": lambda s: norm(s)["abc"]["norm_throughput"] == 1.0,
         "cubic_norm_delay_p95_over_2": lambda s: norm(s)["cubic"]["norm_delay_p95"] > 2.0,
         "cubic+codel_norm_throughput_below_0.9": lambda s:
         norm(s)["cubic+codel"]["norm_throughput"] < 0.9}),
    Row("jain", [("repro.experiments.fairness:jain_index_sweep", dict(
            flow_counts=(2, 4, 8, 16), duration=60.0, warmup=25.0, executor=EXECUTOR))],
        lambda r: [("§6.5 — Jain fairness index for competing ABC flows",
                    [{"flows": n, "jain_index": v} for n, v in r.items()])],
        {"jain_above_0.93_for_every_count": lambda r: all(v > 0.93 for v in r.values())}),
    Row("marking", [("repro.experiments.feedback:marking_burstiness",
                     dict(fraction=0.4, packets=20_000))],
        lambda s: [("Algorithm 1 ablation — marking burstiness at f = 0.4", [s],
                    ["token_gap_variance", "probabilistic_gap_variance",
                     "token_fraction", "probabilistic_fraction"])],
        {"token_gaps_steadier_than_probabilistic": lambda s:
         s["token_gap_variance"] < s["probabilistic_gap_variance"]}),
    Row("pk_abc", [("repro.experiments.feedback:pk_abc_comparison",
                    dict(duration=20.0, executor=EXECUTOR))],
        lambda r: [("§6.6 — PK-ABC vs ABC", [
            {"variant": "ABC", "utilization": r.abc_utilization,
             "queuing_p95_ms": r.abc_queuing_p95_ms},
            {"variant": "PK-ABC", "utilization": r.pk_utilization,
             "queuing_p95_ms": r.pk_queuing_p95_ms}])],
        {"pk_queuing_p95_below_abc": lambda r: r.pk_queuing_p95_ms < r.abc_queuing_p95_ms,
         "pk_utilization_over_0.9x_abc": lambda r: r.pk_utilization
         > 0.9 * r.abc_utilization}),
    Row("stability", [("repro.experiments.stability_eval:fluid_stability_sweep", {}),
                      ("repro.experiments.stability_eval:packet_level_stability",
                       dict(delta_values=(0.04, 0.133, 0.4), executor=EXECUTOR))],
        lambda r: [
            ("Theorem 3.1 — fluid-model sweep (τ = 100 ms)", [
                {"delta_over_tau": ratio, "theory_stable": p.theoretically_stable,
                 "fluid_converged": p.fluid_converged,
                 "oscillation_ms": p.fluid_oscillation_s * 1000.0}
                for ratio, p in r[0].items()]),
            ("Packet-level ABC at several δ (24 Mbit/s, τ = 100 ms)", [
                {"delta_s": d, "utilization": p.utilization,
                 "queuing_p95_ms": p.queuing_p95_ms, "queuing_std_ms": p.queuing_std_ms}
                for d, p in r[1].items()])],
        # Every δ/τ ratio above the bound must converge in the fluid model.
        {"fluid_converges_above_the_bound": lambda r: all(
            p.fluid_converged for p in r[0].values() if p.theoretically_stable)}),
]


def run_row(row: Row, executor: SweepExecutor) -> List[str]:
    """Run one row and print it; returns the names of its failed checks."""
    start, results = time.perf_counter(), []
    for target, kwargs in row.calls:
        kwargs = {k: executor if v is EXECUTOR else v for k, v in kwargs.items()}
        results.append(resolve_name(target)(**kwargs))
        if kwargs.get("executor") is executor:
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the paper's figures "
                                     "and tables and check its claims.")
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="rows to run (default: every row)")
    parser.add_argument("--list", action="store_true",
                        help="import every entry point and print the row ids")
    args = parser.parse_args(argv)
    rows = {row.id: row for row in ROWS}
    unknown = sorted(set(args.ids) - set(rows))
    if unknown:
        parser.error(f"unknown row id(s) {', '.join(unknown)}; known: {' '.join(rows)}")
    if args.list:
        for row in ROWS:
            targets = [target for target, _ in row.calls]
            for target in targets:
                resolve_name(target)
            print(f"{row.id:10s} {' '.join(targets)}")
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
