"""PK-ABC: ABC with perfect knowledge of future link capacity (§6.6).

The paper's PK-ABC variant assumes the base station can predict its resource
allocation: instead of the *current* capacity estimate, the router uses the
exact link rate expected one RTT in the future when computing the target rate.
On the Verizon uplink trace this cuts the 95th-percentile per-packet delay
from 97 ms to 28 ms at the same (~90 %) utilisation.

With a trace-driven link the future is simply the next stretch of the trace,
so PK-ABC is the ABC router whose ``capacity_fn`` reads the trace ahead; it
runs on a trace-driven link only.
"""

from __future__ import annotations

from typing import Optional

from repro.core.params import ABCParams
from repro.core.router import ABCRouterQdisc
from repro.simulator.link import OpportunityLink

#: How far ahead (s) the router reads the link's capacity: one RTT of the
#: paper's 100 ms experiments.
LOOKAHEAD = 0.1


class PKABCRouterQdisc(ABCRouterQdisc):
    """ABC router that reads the link capacity one RTT into the future."""

    name = "pk-abc"

    def __init__(self, params: Optional[ABCParams] = None,
                 buffer_packets: int = 250):
        super().__init__(params=params, buffer_packets=buffer_packets)

    def attach(self, link) -> None:
        """While attached, ``capacity_fn`` is the trace's opportunity rate
        over ``[now, now + LOOKAHEAD]``; detached, it is cleared (it holds
        the link, which holds this router)."""
        if link is None:
            self.capacity_fn = None
        elif isinstance(link, OpportunityLink):
            window = link.capacity_in_window
            self.capacity_fn = lambda now: window(now, now + LOOKAHEAD)
        else:
            raise ValueError("PK-ABC reads the future of a trace-driven "
                             f"link, not of a {type(link).__name__}")
        super().attach(link)
