#!/usr/bin/env python3
"""WiFi example: ABC at an 802.11n access point with link-rate estimation.

Demonstrates the two WiFi-specific pieces of the paper:

1. the §4.1 link-rate estimator — its accuracy is printed against the MAC
   model's ground-truth capacity for a non-backlogged sender;
2. ABC running at the AP with the estimator supplying µ(t), while the MCS
   index alternates between 1 and 7 every two seconds (the Fig. 10 setup),
   compared against Cubic+CoDel on the same link.

Run with::

    python examples/wifi_access_point.py
"""

from repro.aqm.codel import CoDelQdisc
from repro.cc.cubic import Cubic
from repro.core.router import ABCRouterQdisc
from repro.core.sender import ABCWindowControl
from repro.core.params import WIFI_DEFAULTS
from repro.simulator.link import ConstantRate, SquareWaveRate
from repro.simulator.qdisc import FifoQdisc
from repro.simulator.scenario import Scenario
from repro.simulator.traffic import RateLimitedSource
from repro.wifi.mac import WiFiLink
from repro.wifi.mcs import mcs_rate_bps
from repro.wifi.rate_estimator import WiFiRateEstimator

DURATION = 30.0
RTT = 0.04


def estimator_accuracy_demo():
    print("=== §4.1 link-rate estimation (non-backlogged sender) ===")
    for mcs in (3, 5, 7):
        scenario = Scenario()
        estimator = WiFiRateEstimator()
        link = WiFiLink(scenario.env, ConstantRate(mcs_rate_bps(mcs)),
                        qdisc=FifoQdisc(2000), estimator=estimator)
        scenario.add_custom_link(link)
        true_capacity = link.true_capacity_bps(0.0)
        scenario.add_flow(Cubic(), [link], rtt=RTT,
                          source=RateLimitedSource(0.6 * true_capacity))
        scenario.run(10.0)
        predicted = estimator.estimate_bps(10.0, apply_cap=False)
        error = abs(predicted - true_capacity) / true_capacity * 100
        print(f"  MCS {mcs}: true {true_capacity / 1e6:5.1f} Mbit/s, "
              f"estimated {predicted / 1e6:5.1f} Mbit/s ({error:.1f}% error)")


def run_ap(scheme):
    scenario = Scenario()
    phy_rate = SquareWaveRate(mcs_rate_bps(1), mcs_rate_bps(7), 2.0)
    if scheme == "abc":
        estimator = WiFiRateEstimator(window=WIFI_DEFAULTS.measurement_window)
        qdisc = ABCRouterQdisc(params=WIFI_DEFAULTS, buffer_packets=500,
                               capacity_fn=estimator.estimate_bps)
        sender = ABCWindowControl(params=WIFI_DEFAULTS)
        link = WiFiLink(scenario.env, phy_rate, qdisc=qdisc,
                        estimator=estimator)
    else:
        link = WiFiLink(scenario.env, phy_rate, qdisc=CoDelQdisc(500))
        sender = Cubic()
    scenario.add_custom_link(link)
    flow = scenario.add_flow(sender, [link], rtt=RTT)
    result = scenario.run(DURATION)
    return result, link, flow


def main():
    estimator_accuracy_demo()
    print("\n=== ABC vs Cubic+CoDel on an alternating-MCS WiFi link ===")
    for scheme in ("abc", "cubic+codel"):
        result, link, flow = run_ap(scheme)
        print(f"  {scheme:12s} throughput {result.flow_throughput_bps(flow) / 1e6:5.1f} Mbit/s  "
              f"p95 queuing {result.flow_delay_p95_ms(flow, kind='queuing'):6.1f} ms  "
              f"utilization {result.link_utilization(link):4.2f}")


if __name__ == "__main__":
    main()
