"""Golden regression tests pinning the scheme table's wiring.

The sweep executor refactor routes every figure sweep through generic jobs,
so a silent change to how a scheme label maps to (sender class, qdisc class,
buffer size) would corrupt every downstream figure without any test noticing.
This table pins what :func:`repro.experiments.scenario_spec.build` wires for
all 14 paper schemes; update it only for an *intentional* wiring change.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import SCHEME_NAMES
from repro.experiments.scenario_spec import (FlowSpec, LinkSpec, ScenarioSpec,
                                             build)


def _built(name: str, buffer_packets: int = 250, n: int = 1):
    """``name`` wired over ``n`` constant links with ``n`` native flows."""
    link = LinkSpec("constant", {"rate_bps": 10e6},
                    buffer_packets=buffer_packets)
    return build(ScenarioSpec(scheme=name, duration=1.0, links=[link] * n,
                              flows=[FlowSpec(label=name)] * n))


#: scheme label -> (sender class name, qdisc class name)
GOLDEN_WIRING = {
    "abc": ("ABCWindowControl", "ABCRouterQdisc"),
    "xcp": ("XCPSender", "XCPRouterQdisc"),
    "xcpw": ("XCPSender", "XCPRouterQdisc"),
    "cubic+codel": ("Cubic", "CoDelQdisc"),
    "cubic+pie": ("Cubic", "PIEQdisc"),
    "copa": ("Copa", "DropTailQdisc"),
    "sprout": ("Sprout", "DropTailQdisc"),
    "vegas": ("Vegas", "DropTailQdisc"),
    "verus": ("Verus", "DropTailQdisc"),
    "bbr": ("BBR", "DropTailQdisc"),
    "pcc": ("PCCVivace", "DropTailQdisc"),
    "cubic": ("Cubic", "DropTailQdisc"),
    "rcp": ("RCPSender", "RCPRouterQdisc"),
    "vcp": ("VCPSender", "VCPRouterQdisc"),
}


def test_golden_table_covers_all_scheme_names():
    assert set(GOLDEN_WIRING) == set(SCHEME_NAMES)
    assert len(SCHEME_NAMES) == 14


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_scheme_wiring_matches_golden(name):
    expected_sender, expected_qdisc = GOLDEN_WIRING[name]
    built = _built(name)
    assert built.flows[0].label == name
    assert type(built.flows[0].cc).__name__ == expected_sender
    assert type(built.scenario.links[0].qdisc).__name__ == expected_qdisc


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_scheme_buffer_size_is_plumbed(name):
    assert _built(name, buffer_packets=137).scenario.links[0].qdisc \
        .buffer_packets == 137


def test_xcpw_is_the_wireless_xcp_variant():
    assert _built("xcpw").scenario.links[0].qdisc.wireless is True
    assert _built("xcp").scenario.links[0].qdisc.wireless is False


def test_sender_factories_build_fresh_instances():
    built = _built("cubic", n=2)
    assert built.flows[0].cc is not built.flows[1].cc
    qdiscs = [link.qdisc for link in built.scenario.links]
    assert qdiscs[0] is not qdiscs[1]
