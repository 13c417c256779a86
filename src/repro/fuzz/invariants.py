"""Composable invariant checkers run against every finished simulation.

Each checker is a plain function ``(ctx: CheckContext) -> list[Violation]``;
:func:`run_invariants` runs a suite and concatenates the findings.  The
checkers only assert properties that hold for *every* valid scenario — they
are sound bounds, not statistical expectations — so any violation is a real
simulator (or checker) bug worth a corpus entry:

``link-throughput``
    Bits a link delivered never exceed the bits its capacity model offered
    (plus an explicit per-model slack for edge effects).
``non-negative``
    Queue backlogs (recorded mid-run and read at the end), counters,
    recorded congestion windows and delay samples are non-negative and finite.
``queuing-delay-bound``
    No delivered packet queued longer than the worst-case FIFO drain time of
    the buffers it crossed.
``packet-conservation``
    Per link: packets that arrived equal packets delivered + dropped (queue
    and random loss) + still queued + mid-transmission.  Per flow: the
    receiver never saw more packets than the sender transmitted.
``fairness``
    Symmetric long-running ABC flows reach a Jain-index floor over the
    second half of the run (checked only when the scenario qualifies).

Determinism (same scenario → bit-identical summary) is checked by the
campaign layer, which owns running the simulation twice; see
:func:`repro.fuzz.campaign.fuzz_summary`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List

from repro.analysis.fairness import jain_fairness_index
from repro.experiments.scenario_spec import (NATIVE, BuiltScenario,
                                             ScenarioSpec, build)
from repro.obs.signals import SignalRecorder
from repro.simulator.link import (CapacityModel, ConstantRate, OpportunityLink,
                                  RateLink, SquareWaveRate, SteppedRate)
from repro.simulator.packet import MTU
from repro.simulator.scenario import ScenarioResult

#: Jain-index floor for symmetric ABC flows (second half of the run).  ABC
#: converges to near-perfect fairness in the paper's Fig. 3; the floor is
#: deliberately loose because short fuzz runs include convergence transients.
FAIRNESS_FLOOR = 0.6

#: Absolute slack for float comparisons on time quantities (seconds).
TIME_EPS = 1e-6

#: Simulated seconds between two samples of :func:`run_built`'s recorder.
SAMPLE_INTERVAL = 0.05


@dataclass(frozen=True)
class Violation:
    """One invariant failure, as serializable data."""

    invariant: str
    message: str


@dataclass
class CheckContext:
    """Everything a checker may inspect about one finished simulation."""

    fuzz: ScenarioSpec
    built: BuiltScenario
    result: ScenarioResult
    #: The run's mid-run columns, every :data:`SAMPLE_INTERVAL`.
    signals: SignalRecorder


Checker = Callable[[CheckContext], List[Violation]]


def run_scenario(fuzz: ScenarioSpec) -> CheckContext:
    """Build ``fuzz`` and :func:`run_built` it."""
    return run_built(build(fuzz))


def run_built(built: BuiltScenario) -> CheckContext:
    """Run ``built`` under a :class:`SignalRecorder`: what checkers read."""
    signals = SignalRecorder(built.scenario, SAMPLE_INTERVAL)
    result = built.scenario.run(built.spec.duration)
    return CheckContext(fuzz=built.spec, built=built, result=result,
                        signals=signals)


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------
def _model_min_rate(model: CapacityModel) -> float:
    if isinstance(model, ConstantRate):
        return model.rate_bps
    if isinstance(model, SquareWaveRate):
        return min(model.low_bps, model.high_bps)
    if isinstance(model, SteppedRate):
        return min(model._rates)
    raise TypeError(f"no min-rate bound for {type(model).__name__}")


def _rate_segments(model: CapacityModel, duration: float) -> int:
    """Upper bound on the number of rate changes during the run."""
    if isinstance(model, ConstantRate):
        return 0
    if isinstance(model, SquareWaveRate):
        return int(duration / model.half_period) + 1
    if isinstance(model, SteppedRate):
        return len(model._rates)
    raise TypeError(f"no segment bound for {type(model).__name__}")


def check_link_throughput(ctx: CheckContext) -> List[Violation]:
    """Delivered bits never exceed offered capacity (plus explicit slack).

    Slack terms: trace-driven links get a couple of MTUs for opportunities
    landing exactly on the window edges; rate links additionally get one MTU
    per rate change, because a transmission is paced at the rate sampled at
    its *start* (a rate drop mid-packet briefly overshoots the integral).
    """
    out = []
    duration = ctx.fuzz.duration
    for link in ctx.built.scenario.links:
        delivered = link.delivered_bits(0.0, duration)
        offered = link.offered_bits(0.0, duration)
        if isinstance(link, RateLink):
            slack = (_rate_segments(link.capacity, duration) + 4) * MTU * 8.0
        else:
            slack = 4 * MTU * 8.0
        if delivered > offered + slack:
            out.append(Violation(
                "link-throughput",
                f"link {link.name!r} delivered {delivered:.0f} bits but "
                f"offered only {offered:.0f} (+{slack:.0f} slack) over "
                f"{duration:.3f}s"))
    return out


def check_non_negative(ctx: CheckContext) -> List[Violation]:
    """Backlogs, counters, cwnd samples and delay samples are sane."""
    out = []
    for link in ctx.built.scenario.links:
        q = link.qdisc
        if q.backlog_packets < 0 or q.backlog_bytes < 0:
            out.append(Violation(
                "non-negative",
                f"link {link.name!r} ended with negative backlog "
                f"({q.backlog_packets} pkts / {q.backlog_bytes} bytes)"))
        if min((q.dropped_packets, link.random_loss_packets,
                link.delivered_packets, link.arrived_packets)) < 0:
            out.append(Violation(
                "non-negative",
                f"link {link.name!r} has a negative packet counter"))
        if min(ctx.signals.links[link.name]["backlog_packets"]) < 0:
            out.append(Violation(
                "non-negative",
                f"link {link.name!r} recorded a negative queue sample"))
    for flow in ctx.built.flows:
        if flow.sender.in_flight < 0:
            out.append(Violation(
                "non-negative",
                f"flow {flow.flow_id} ended with in_flight="
                f"{flow.sender.in_flight}"))
        delays = flow.stats.delays("queuing")
        if delays.size and float(delays.min()) < -TIME_EPS:
            out.append(Violation(
                "non-negative",
                f"flow {flow.flow_id} recorded a negative queuing delay"))
        for sample in ctx.signals.flows[flow.flow_id]["cwnd"]:
            if not math.isfinite(sample) or sample < 0.0:
                out.append(Violation(
                    "non-negative",
                    f"flow {flow.flow_id} cwnd sample {sample!r} is negative "
                    f"or non-finite"))
                break
    return out


def link_queuing_delay_bound(link, duration: float) -> float:
    """Sound upper bound on any packet's queuing delay at ``link``.

    FIFO drain argument: an admitted packet has at most ``B - 1`` packets
    ahead of it (``B`` = buffer size in packets), every transmission serves
    the head of the queue, and the AQMs never stall a non-empty queue (CoDel
    re-dequeues after an internal drop, PIE and the routers drop at enqueue).
    So the packet departs within ``B`` transmissions of its arrival.
    """
    B = link.qdisc.buffer_packets
    if isinstance(link, OpportunityLink):
        bound = link.max_drain_interval(B)
    elif isinstance(link, RateLink):
        bound = (B + 1) * MTU * 8.0 / _model_min_rate(link.capacity)
    else:
        return duration
    # A packet delivered inside the run queued for less than the whole run.
    return min(bound, duration)


def check_queuing_delay(ctx: CheckContext) -> List[Violation]:
    out = []
    duration = ctx.fuzz.duration
    bounds = {id(link): link_queuing_delay_bound(link, duration)
              for link in ctx.built.scenario.links}
    for flow in ctx.built.flows:
        path_bound = sum(bounds[id(link)] for link in flow.links)
        delays = flow.stats.delays("queuing")
        if delays.size == 0:
            continue
        worst = float(delays.max())
        if worst > path_bound + TIME_EPS:
            out.append(Violation(
                "queuing-delay-bound",
                f"flow {flow.flow_id} saw {worst * 1000:.2f} ms of queuing "
                f"but the FIFO drain bound for its path is "
                f"{path_bound * 1000:.2f} ms"))
    return out


def check_packet_conservation(ctx: CheckContext) -> List[Violation]:
    out = []
    for link in ctx.built.scenario.links:
        q = link.qdisc
        accounted = (link.delivered_packets + q.dropped_packets
                     + link.random_loss_packets + q.backlog_packets
                     + link.packets_in_transmission)
        if accounted != link.arrived_packets:
            out.append(Violation(
                "packet-conservation",
                f"link {link.name!r}: arrived={link.arrived_packets} but "
                f"delivered={link.delivered_packets} "
                f"+ queue_drops={q.dropped_packets} "
                f"+ random_loss={link.random_loss_packets} "
                f"+ backlog={q.backlog_packets} "
                f"+ in_transmission={link.packets_in_transmission} "
                f"= {accounted}"))
    for flow in ctx.built.flows:
        received = len(flow.stats)
        sent = flow.sender.packets_sent
        if received > sent:
            out.append(Violation(
                "packet-conservation",
                f"flow {flow.flow_id} received {received} packets but the "
                f"sender only transmitted {sent}"))
    return out


def fairness_applies(fuzz: ScenarioSpec) -> bool:
    """Whether the symmetric-ABC fairness floor is meaningful here.

    Requires ≥ 2 native ABC flows, identical RTTs, *simultaneous* starts and
    no random loss anywhere on the path.  Simultaneity matters: a flow
    joining against an established competitor converges over tens of RTTs
    (the paper's Fig. 3 dynamics), so short fuzz runs with staggered
    arrivals legitimately end far from the fair share — fuzzing found
    exactly that (abc on a square-wave link, join at t=0.8s of 4s, Jain
    0.57), and it is convergence, not a bug.
    """
    if fuzz.scheme != "abc" or len(fuzz.flows) < 2:
        return False
    if any(flow.cc != NATIVE for flow in fuzz.flows):
        return False
    rtts = {flow.rtt for flow in fuzz.flows}
    if len(rtts) != 1:
        return False
    if any(flow.start_time != 0.0 for flow in fuzz.flows):
        return False
    if any(link.loss_rate > 0.0 for link in fuzz.links):
        return False
    return True


def check_fairness(ctx: CheckContext) -> List[Violation]:
    if not fairness_applies(ctx.fuzz):
        return []
    half = ctx.fuzz.duration / 2.0
    rates = [ctx.result.flow_throughput_bps(flow, t0=half)
             for flow in ctx.built.flows]
    if sum(rates) <= 0.0:
        return []  # outage-dominated trace: fairness is undefined.
    index = jain_fairness_index(rates)
    if index < FAIRNESS_FLOOR:
        return [Violation(
            "fairness",
            f"{len(rates)} symmetric abc flows reached Jain index "
            f"{index:.3f} < {FAIRNESS_FLOOR} over the second half "
            f"(rates: {[f'{r / 1e6:.2f}Mbps' for r in rates]})")]
    return []


DEFAULT_CHECKERS: List[Checker] = [
    check_link_throughput,
    check_non_negative,
    check_queuing_delay,
    check_packet_conservation,
    check_fairness,
]

#: Names of every invariant the default suite (plus the campaign's
#: determinism replay) can report.
INVARIANT_NAMES = ("link-throughput", "non-negative", "queuing-delay-bound",
                   "packet-conservation", "fairness", "determinism")


def run_invariants(ctx: CheckContext) -> List[Violation]:
    """Run the full suite of checkers and collect violations."""
    violations: List[Violation] = []
    for checker in DEFAULT_CHECKERS:
        violations.extend(checker(ctx))
    return violations


# ---------------------------------------------------------------------------
# Deterministic run summary (the determinism invariant's comparand)
# ---------------------------------------------------------------------------
def scenario_summary(built: BuiltScenario) -> dict:
    """Exact-integer/float summary of one finished run.

    Two runs of the same :class:`ScenarioSpec` must produce *equal* summaries
    (the determinism invariant compares with ``==``), so every field here is
    a deterministic function of the simulation — no wall-clock, no ids.
    """
    links = {}
    for link in built.scenario.links:
        links[link.name] = {
            "arrived": link.arrived_packets,
            "delivered_packets": link.delivered_packets,
            "delivered_bytes": link.delivered_bytes,
            "queue_drops": link.qdisc.dropped_packets,
            "random_loss": link.random_loss_packets,
            "backlog": link.qdisc.backlog_packets,
        }
    flows = {}
    for flow in built.flows:
        stats = flow.stats
        flows[str(flow.flow_id)] = {
            "packets_sent": flow.sender.packets_sent,
            "bytes_acked": flow.sender.bytes_acked,
            "retransmissions": flow.sender.retransmissions,
            "packets_received": len(stats),
            "bytes_received": stats.bytes_received,
            "max_queuing_delay": (float(stats.delays("queuing").max())
                                  if len(stats) else 0.0),
        }
    return {"links": links, "flows": flows}
