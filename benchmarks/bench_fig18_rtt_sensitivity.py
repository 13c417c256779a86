"""Fig. 18 (Appendix E) — sensitivity to the propagation RTT.

Set ``REPRO_SEEDS="1,2,3"`` for the statistical variant (per-seed traces,
across-seed means with a ±CI column)."""

from _util import (bench_seeds, print_executor_stats, print_table, run_once,
                   sweep_executor)

from repro.experiments.pareto import fig18_rtt_sensitivity

SCHEMES = ("abc", "cubic+codel", "cubic", "bbr")
RTTS = (0.02, 0.05, 0.1, 0.2)

EXECUTOR = sweep_executor()
SEEDS = bench_seeds()


def test_fig18_rtt_sensitivity(benchmark):
    results = run_once(benchmark, fig18_rtt_sensitivity, schemes=SCHEMES,
                       rtts=RTTS, duration=15.0, executor=EXECUTOR,
                       seeds=SEEDS)
    print_executor_stats(EXECUTOR)
    multi = hasattr(results[RTTS[0]]["abc"], "agg")   # a SeedResultSet
    rows = []
    for rtt, per_scheme in results.items():
        for scheme, res in per_scheme.items():
            row = {"rtt_ms": rtt * 1000.0, "scheme": scheme,
                   "utilization": res.utilization,
                   "queuing_p95_ms": res.queuing_p95_ms}
            if multi:
                row["utilization_ci95"] = res.agg("utilization").ci95
                row["queuing_p95_ms_ci95"] = res.agg("queuing_p95_ms").ci95
            rows.append(row)
    columns = ["rtt_ms", "scheme", "utilization", "queuing_p95_ms"]
    if multi:
        columns += ["utilization_ci95", "queuing_p95_ms_ci95"]
    print_table("Fig. 18 — propagation-delay sensitivity", rows, columns)
    # Across every RTT, ABC keeps queuing delay well below Cubic's while
    # staying at or above Cubic+Codel's utilisation (across-seed means when
    # REPRO_SEEDS requests the statistical variant).
    for rtt in RTTS:
        abc = results[rtt]["abc"]
        cubic = results[rtt]["cubic"]
        codel = results[rtt]["cubic+codel"]
        assert abc.queuing_p95_ms < cubic.queuing_p95_ms
        assert abc.utilization > 0.9 * codel.utilization
