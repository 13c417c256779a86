"""One recorder for ABC's control loop, read from state the run keeps: a
:meth:`Scenario.every <repro.simulator.scenario.Scenario.every>` probe whose
reads change no state, so a recorded run's results are an unrecorded run's
and the per-packet path does no extra work."""

from __future__ import annotations

from typing import Callable, Dict, List


def _flow_reads(flow) -> Dict[str, Callable]:
    sender, cc = flow.sender, flow.cc
    reads = {"cwnd": lambda now: cc.cwnd(),
             "in_flight": lambda now: sender.in_flight,
             "srtt": lambda now: sender.rtt.srtt}
    if hasattr(cc, "w_abc"):  # ABC's two windows (§5.1.1)
        reads.update(w_abc=lambda now: cc.w_abc,
                     w_nonabc=lambda now: cc.w_nonabc,
                     observed_accel_fraction=(
                         lambda now: cc.observed_accel_fraction))
    return reads


def _link_reads(link) -> Dict[str, Callable]:
    """``capacity_bps`` is the true capacity: on Wi-Fi the MCS ground truth,
    not the estimator that ``WiFiLink.capacity_bps`` reads (and expires).
    An ABC router adds Eqs. 1-2 as its last ``dequeue`` wrote them and its
    marker's counts; the dual queue (§5.2) adds its weight and queue delays."""
    qdisc = link.qdisc
    reads = {"backlog_packets": lambda now: qdisc.backlog_packets,
             "capacity_bps": getattr(link, "true_capacity_bps",
                                     link.capacity_bps)}
    router = getattr(qdisc, "abc_queue", qdisc)
    if hasattr(router, "last_fraction"):
        marker = router.marker
        reads.update(fraction=lambda now: router.last_fraction,
                     target_rate=lambda now: router.last_target_rate,
                     router_capacity=lambda now: router.last_capacity,
                     queuing_delay=lambda now: router.last_queuing_delay,
                     accel_count=lambda now: marker.accel_count,
                     brake_count=lambda now: marker.brake_count)
    if router is not qdisc:
        reads.update(weight_abc=lambda now: qdisc.weight_abc,
                     abc_queuing_delay=qdisc.abc_queuing_delay,
                     nonabc_queuing_delay=qdisc.nonabc_queuing_delay)
    return reads


class SignalRecorder:
    """``times`` and ``flows[flow_id][column]`` / ``links[name][column]``
    lists, sampled every ``interval`` of ``scenario`` once it runs."""

    def __init__(self, scenario, interval: float):
        self.times: List[float] = []
        self.flows = {flow.flow_id: _flow_reads(flow)
                      for flow in scenario.flows}
        self.links = {link.name: _link_reads(link) for link in scenario.links}
        self._reads = []
        for table in (self.flows, self.links):
            for key, reads in table.items():
                table[key] = {name: [] for name in reads}
                self._reads += [(table[key][name].append, read)
                                for name, read in reads.items()]
        scenario.every(interval, self._sample)

    def _sample(self, now: float) -> None:
        self.times.append(now)
        for append, read in self._reads:
            append(read(now))
