"""Name-based registry of sender-side congestion-control algorithms.

Experiments refer to schemes by the labels used in the paper's figures
("cubic", "bbr", "sprout", ...).  The registry maps those labels to the
``"module:class"`` of each sender, imported by :func:`make_cc` on first
use: validating a spec or listing the schemes loads no sender module, and a
cell loads only the senders it runs.  Router-side components (AQM qdiscs,
the ABC router, XCP/RCP/VCP routers) are chosen separately by the experiment
runner because the same sender can face different bottleneck configurations
(e.g. Cubic vs Cubic+Codel).
"""

from __future__ import annotations

from pkgutil import resolve_name
from typing import TYPE_CHECKING, List

if TYPE_CHECKING:
    from repro.cc.base import CongestionControl

_REGISTRY = {
    "newreno": "repro.cc.newreno:NewReno",
    "cubic": "repro.cc.cubic:Cubic",
    "vegas": "repro.cc.vegas:Vegas",
    "bbr": "repro.cc.bbr:BBR",
    "copa": "repro.cc.copa:Copa",
    "pcc": "repro.cc.pcc_vivace:PCCVivace",
    "sprout": "repro.cc.sprout:Sprout",
    "verus": "repro.cc.verus:Verus",
    "abc": "repro.core.sender:ABCWindowControl",
    "xcp": "repro.explicit.xcp:XCPSender",
    "rcp": "repro.explicit.rcp:RCPSender",
    "vcp": "repro.explicit.vcp:VCPSender",
}


def make_cc(name: str, **kwargs) -> CongestionControl:
    """Instantiate a congestion controller by scheme name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown congestion control scheme {name!r}; "
                       f"available: {sorted(_REGISTRY)}")
    return resolve_name(_REGISTRY[key])(**kwargs)


def available_schemes() -> List[str]:
    """Names of all registered sender-side schemes."""
    return sorted(_REGISTRY)
