#!/usr/bin/env python3
"""Coexistence demo: ABC sharing paths and bottlenecks with legacy traffic.

Part 1 (§5.1 / Fig. 6): an ABC flow crosses an ABC wireless hop *and* a
non-ABC 12 Mbit/s wired hop.  The dual-window sender tracks whichever link is
the bottleneck; the script reports how closely the flow follows the ideal
rate.

Part 2 (§5.2 / Fig. 7): two ABC flows and two Cubic flows share an ABC
bottleneck through the two-queue scheduler with max-min weights; the script
reports per-group throughput and queuing delay — the difference between the
group means should stay small while ABC keeps its queue short.

Run with::

    python examples/coexistence_demo.py
"""

from repro.experiments.coexistence import (FIG6_SAMPLE_INTERVAL, WIRED_MBPS,
                                           fig6_spec,
                                           fig7_coexistence_timeseries)
from repro.experiments.scenario_spec import BASE_RTT, spec_cell


def main():
    print("=== Part 1: ABC across an ABC wireless hop + non-ABC wired hop ===")
    # One Fig. 6 cell, run in-process: a spec plus the summary that measures it.
    trace = spec_cell(fig6_spec(60.0, WIRED_MBPS, BASE_RTT).to_jsonable(),
                      "fig6", sample_interval=FIG6_SAMPLE_INTERVAL)
    print(f"  mean relative tracking error vs ideal rate: {trace.tracking_error:.2%}")
    print(f"  peak queuing delay: {trace.queuing_delay_ms.max():.0f} ms")
    print(f"  peak w_abc: {trace.w_abc.max():.0f} packets, "
          f"peak w_cubic: {trace.w_cubic.max():.0f} packets")

    print("\n=== Part 2: ABC and Cubic flows sharing an ABC bottleneck ===")
    result = fig7_coexistence_timeseries(duration=120.0, stagger=30.0)
    print(f"  ABC flows:   {['%.1f' % t for t in result.abc_throughputs_mbps]} Mbit/s, "
          f"p95 queuing {result.abc_queuing_p95_ms:.0f} ms")
    print(f"  Cubic flows: {['%.1f' % t for t in result.cubic_throughputs_mbps]} Mbit/s, "
          f"p95 queuing {result.cubic_queuing_p95_ms:.0f} ms")
    print(f"  relative throughput gap (Cubic vs ABC): {result.throughput_gap:+.1%}")


if __name__ == "__main__":
    main()
