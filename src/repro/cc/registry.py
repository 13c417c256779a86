"""Name-based registry of sender-side congestion-control algorithms.

Experiments refer to schemes by the labels used in the paper's figures
("cubic", "bbr", "sprout", ...).  The registry maps those labels to factories
so sweeps can be written as plain lists of strings.  Router-side components
(AQM qdiscs, the ABC router, XCP/RCP/VCP routers) are chosen separately by the
experiment runner because the same sender can face different bottleneck
configurations (e.g. Cubic vs Cubic+Codel).
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.cc.base import CongestionControl
from repro.cc.bbr import BBR
from repro.cc.copa import Copa
from repro.cc.cubic import Cubic
from repro.cc.newreno import NewReno
from repro.cc.pcc_vivace import PCCVivace
from repro.cc.sprout import Sprout
from repro.cc.vegas import Vegas
from repro.cc.verus import Verus

_REGISTRY: Dict[str, Callable[..., CongestionControl]] = {}


def register_scheme(name: str, factory: Callable[..., CongestionControl]) -> None:
    """Register (or override) a congestion-control factory under ``name``."""
    _REGISTRY[name.lower()] = factory


def make_cc(name: str, **kwargs) -> CongestionControl:
    """Instantiate a congestion controller by scheme name."""
    key = name.lower()
    if key not in _REGISTRY:
        raise KeyError(f"unknown congestion control scheme {name!r}; "
                       f"available: {sorted(_REGISTRY)}")
    return _REGISTRY[key](**kwargs)


def available_schemes() -> List[str]:
    """Names of all registered sender-side schemes."""
    return sorted(_REGISTRY)


def _register_builtin() -> None:
    register_scheme("newreno", NewReno)
    register_scheme("cubic", Cubic)
    register_scheme("vegas", Vegas)
    register_scheme("bbr", BBR)
    register_scheme("copa", Copa)
    register_scheme("pcc", PCCVivace)
    register_scheme("sprout", Sprout)
    register_scheme("verus", Verus)

    # ABC and the explicit schemes live in other subpackages; import lazily to
    # avoid circular imports at package-initialisation time.
    def _abc_factory(**kwargs):
        from repro.core.sender import ABCWindowControl
        return ABCWindowControl(**kwargs)

    def _xcp_factory(**kwargs):
        from repro.explicit.xcp import XCPSender
        return XCPSender(**kwargs)

    def _rcp_factory(**kwargs):
        from repro.explicit.rcp import RCPSender
        return RCPSender(**kwargs)

    def _vcp_factory(**kwargs):
        from repro.explicit.vcp import VCPSender
        return VCPSender(**kwargs)

    register_scheme("abc", _abc_factory)
    register_scheme("xcp", _xcp_factory)
    register_scheme("rcp", _rcp_factory)
    register_scheme("vcp", _vcp_factory)


_register_builtin()
