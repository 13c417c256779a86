"""§6.6 — PK-ABC: perfect knowledge of future link capacity."""

from _util import print_table, run_once

from repro.experiments.feedback import pk_abc_comparison


def test_pk_abc_oracle(benchmark):
    result = run_once(benchmark, pk_abc_comparison, duration=20.0)
    rows = [
        {"variant": "ABC", "utilization": result.abc_utilization,
         "queuing_p95_ms": result.abc_queuing_p95_ms},
        {"variant": "PK-ABC", "utilization": result.pk_utilization,
         "queuing_p95_ms": result.pk_queuing_p95_ms},
    ]
    print_table("§6.6 — PK-ABC vs ABC", rows,
                ["variant", "utilization", "queuing_p95_ms"])
    assert result.pk_queuing_p95_ms < result.abc_queuing_p95_ms
    assert result.pk_utilization > 0.9 * result.abc_utilization
