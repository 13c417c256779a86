"""Integration tests for the paper's headline qualitative claims.

Each test runs the packet-level simulator end to end (short durations, fixed
seeds) and asserts the *shape* of a result the paper reports: who wins, by
roughly what factor, and which trade-off each scheme lands on.  Absolute
numbers differ from the paper (synthetic traces, simulated substrate); the
README's figure map names the harness that prints each figure's numbers, and
``benchmarks/ledger/README.md`` records the measured ranges behind the
ledger's paper-claim checks.
"""

import pytest

from repro.cc.registry import make_cc
from repro.aqm.codel import CoDelQdisc
from repro.aqm.droptail import DropTailQdisc
from repro.core.params import ABCParams
from repro.core.router import ABCRouterQdisc
from repro.experiments.runner import run_single_bottleneck
from tests.conftest import run_single_flow

DURATION = 10.0


@pytest.fixture(scope="module")
def abc_result(bursty_trace):
    return run_single_bottleneck("abc", bursty_trace, duration=DURATION)


@pytest.fixture(scope="module")
def cubic_result(bursty_trace):
    return run_single_bottleneck("cubic", bursty_trace, duration=DURATION)


@pytest.fixture(scope="module")
def codel_result(bursty_trace):
    return run_single_bottleneck("cubic+codel", bursty_trace, duration=DURATION)


# ------------------------------------------------------------ §2 motivation
def test_cubic_bufferbloat_on_variable_link(cubic_result):
    """Fig. 1a: Cubic fills the deep buffer — high utilisation, huge delays."""
    assert cubic_result.utilization > 0.85
    assert cubic_result.queuing_p95_ms > 500.0


def test_codel_removes_bloat_but_underutilizes(codel_result, cubic_result):
    """Fig. 1c: Cubic+CoDel cuts delay by an order of magnitude but leaves
    the link underutilised after capacity increases."""
    assert codel_result.queuing_p95_ms < cubic_result.queuing_p95_ms / 3.0
    assert codel_result.utilization < cubic_result.utilization


def test_abc_high_utilization_and_low_delay(abc_result, cubic_result, codel_result):
    """Fig. 1d: ABC gets close to Cubic's utilisation at CoDel-like delays."""
    assert abc_result.utilization > 0.95 * codel_result.utilization
    assert abc_result.queuing_p95_ms < cubic_result.queuing_p95_ms / 3.0
    assert abc_result.queuing_p95_ms < 250.0


def test_abc_beats_cubic_codel_tradeoff(abc_result, codel_result):
    """§1: ABC achieves higher throughput than Cubic+Codel for similar delay."""
    assert abc_result.utilization > codel_result.utilization
    assert abc_result.queuing_p95_ms < 2.0 * codel_result.queuing_p95_ms


# ------------------------------------------------------------ §6.3 baselines
def test_bbr_incurs_higher_delay_than_abc(bursty_trace, abc_result):
    bbr = run_single_bottleneck("bbr", bursty_trace, duration=DURATION)
    assert bbr.queuing_p95_ms > 1.5 * abc_result.queuing_p95_ms


def test_sprout_is_conservative(bursty_trace, abc_result):
    """ABC achieves substantially higher utilisation than Sprout (§6.3)."""
    sprout = run_single_bottleneck("sprout", bursty_trace, duration=DURATION)
    assert sprout.utilization < abc_result.utilization
    assert abc_result.utilization / max(sprout.utilization, 1e-6) > 1.2


def test_vegas_underutilizes_relative_to_abc(bursty_trace, abc_result):
    vegas = run_single_bottleneck("vegas", bursty_trace, duration=DURATION)
    assert vegas.utilization < abc_result.utilization


def test_xcp_similar_throughput_but_higher_delay(bursty_trace, abc_result):
    """§6.3: XCP reaches ABC-like utilisation but ~2× the p95 delay."""
    xcp = run_single_bottleneck("xcp", bursty_trace, duration=DURATION)
    assert xcp.utilization > 0.75 * abc_result.utilization
    assert xcp.queuing_p95_ms > 1.3 * abc_result.queuing_p95_ms


def test_xcpw_improves_on_xcp_delay(bursty_trace):
    xcp = run_single_bottleneck("xcp", bursty_trace, duration=DURATION)
    xcpw = run_single_bottleneck("xcpw", bursty_trace, duration=DURATION)
    assert xcpw.queuing_p95_ms < xcp.queuing_p95_ms


def test_abc_beats_rcp_utilization(bursty_trace, abc_result):
    """Appendix D: ABC achieves ~20 % more utilisation than RCP."""
    rcp = run_single_bottleneck("rcp", bursty_trace, duration=DURATION)
    assert abc_result.utilization > 1.1 * rcp.utilization


def test_abc_beats_vcp_utilization(bursty_trace, abc_result):
    vcp = run_single_bottleneck("vcp", bursty_trace, duration=DURATION)
    assert abc_result.utilization > 1.1 * vcp.utilization


# ------------------------------------------------------------ feedback ablation
def test_dequeue_feedback_halves_delay_vs_enqueue(bursty_trace):
    """Fig. 2: enqueue-rate feedback roughly doubles p95 queuing delay."""
    dequeue = run_single_bottleneck("abc", bursty_trace, duration=DURATION)
    enqueue = run_single_bottleneck("abc-enqueue", bursty_trace, duration=DURATION)
    assert enqueue.queuing_p95_ms > 1.4 * dequeue.queuing_p95_ms


# ------------------------------------------------------------ PK-ABC (§6.6)
def test_pk_abc_reduces_delay_at_same_utilization(bursty_trace):
    abc = run_single_bottleneck("abc", bursty_trace, duration=DURATION)
    pk = run_single_bottleneck("pk-abc", bursty_trace, duration=DURATION)
    assert pk.queuing_p95_ms < abc.queuing_p95_ms
    assert pk.utilization > 0.9 * abc.utilization


# ------------------------------------------------------------ multi-bottleneck
def test_two_abc_bottlenecks_track_the_slower_one(short_trace, bursty_trace):
    """§3.1.2: with two ABC routers the minimum accelerate fraction wins, so
    the flow tracks the tighter link without queue blow-up at either.

    With two independently varying links neither link alone can be fully
    utilised (the instantaneous path capacity is the min of the two), so the
    check is that whichever link is the effective bottleneck is reasonably
    utilised and queues stay bounded at both.
    """
    result = run_single_bottleneck("abc", short_trace, duration=DURATION,
                                   extra_links=[bursty_trace])
    assert max(result.extra["per_link_utilization"]) > 0.4
    assert result.queuing_p95_ms < 400.0
    assert result.throughput_bps > 2e6


# ------------------------------------------------------------ ABC on constant links
def test_abc_utilization_approaches_eta_on_constant_link():
    params = ABCParams()
    result, link, flow = run_single_flow(make_cc("abc", params=params),
                                         ABCRouterQdisc(params=params),
                                         24e6, duration=10.0)
    util = result.link_utilization(link, t0=2.0)
    assert util == pytest.approx(params.eta, abs=0.05)
    assert flow.stats.delay_percentile(95, kind="queuing") < 0.05


def test_abc_delay_threshold_trades_delay_for_throughput(bursty_trace):
    """Fig. 10: larger dt -> more throughput and more delay."""
    low = run_single_bottleneck("abc", bursty_trace, duration=DURATION,
                                abc_params=ABCParams(delay_threshold=0.02))
    high = run_single_bottleneck("abc", bursty_trace, duration=DURATION,
                                 abc_params=ABCParams(delay_threshold=0.1))
    assert high.utilization >= low.utilization
    assert high.queuing_p95_ms >= low.queuing_p95_ms
