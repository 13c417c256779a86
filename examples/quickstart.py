#!/usr/bin/env python3
"""Quickstart: one ABC flow over a synthetic LTE link, compared with Cubic.

Run with::

    python examples/quickstart.py

It builds the smallest interesting scenario — a single backlogged flow over a
trace-driven cellular bottleneck with a 100 ms round-trip time and a 250-packet
buffer (the paper's §6.2 setup) — once with ABC (sender + router qdisc) and
once with Cubic over a plain drop-tail buffer, then prints the utilisation and
delay each achieves.
"""

from repro.aqm import DropTailQdisc
from repro.cc import Cubic
from repro.cellular import lte_showcase_trace
from repro.core import ABCParams, ABCRouterQdisc, ABCWindowControl
from repro.simulator.scenario import Scenario

DURATION = 30.0
RTT = 0.1
BUFFER_PACKETS = 250


def run_abc(trace):
    params = ABCParams()  # eta = 0.98, delta = 133 ms, dt = 20 ms
    scenario = Scenario()
    link = scenario.add_cellular_link(
        trace, qdisc=ABCRouterQdisc(params=params, buffer_packets=BUFFER_PACKETS),
        name="lte")
    flow = scenario.add_flow(ABCWindowControl(params=params), [link], rtt=RTT)
    result = scenario.run(DURATION)
    return result, link, flow


def run_cubic(trace):
    scenario = Scenario()
    link = scenario.add_cellular_link(
        trace, qdisc=DropTailQdisc(buffer_packets=BUFFER_PACKETS), name="lte")
    flow = scenario.add_flow(Cubic(), [link], rtt=RTT)
    result = scenario.run(DURATION)
    return result, link, flow


def describe(name, result, link, flow):
    print(f"{name:12s}  utilization {result.link_utilization(link):5.2f}   "
          f"p95 per-packet delay {result.flow_delay_p95_ms(flow):7.1f} ms   "
          f"p95 queuing delay {result.flow_delay_p95_ms(flow, kind='queuing'):7.1f} ms")


def main():
    trace = lte_showcase_trace(duration=DURATION)
    print(f"Link: {trace.name}, mean capacity "
          f"{trace.mean_rate_bps() / 1e6:.1f} Mbit/s over {trace.duration:.0f} s\n")
    describe("ABC", *run_abc(trace))
    describe("Cubic", *run_cubic(trace))
    print("\nABC should match Cubic's ballpark throughput at a small fraction "
          "of its queuing delay (compare Fig. 1a and Fig. 1d in the paper).")


if __name__ == "__main__":
    main()
