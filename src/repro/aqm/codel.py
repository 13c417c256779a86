"""CoDel (Controlled Delay) active queue management.

The CoDel dequeue-time algorithm of Nichols & Jacobson, "Controlling Queue
Delay" (ACM Queue 2012), as RFC 8289 §5's pseudocode writes it.  Packets
whose sojourn time has exceeded ``target`` for at least ``interval`` are
dropped (or ECN-marked when ``ecn=True``) at a rate that increases with the
square root of the number of drops, which is the control law that gives CoDel
its name.

The paper pairs CoDel with Cubic ("Cubic+Codel"): it removes bufferbloat but
cannot signal rate increases, which is exactly the behaviour Fig. 1c shows and
ABC improves on.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

from repro.simulator.packet import Packet, apply_ce
from repro.simulator.qdisc import Qdisc

#: RFC 8289's ``maxpacket``, the interface MTU: with no more than this left
#: queued, a packet is never dropped.
MAXPACKET = 1500


class CoDelQdisc(Qdisc):
    """CoDel AQM over a FIFO queue."""

    name = "codel"

    def __init__(self, buffer_packets: int = 250, target: float = 0.005,
                 interval: float = 0.1, ecn: bool = False):
        super().__init__(buffer_packets=buffer_packets)
        if target <= 0 or interval <= 0:
            raise ValueError("target and interval must be positive")
        self.target = target
        self.interval = interval
        self.ecn = ecn

        self._first_above_time = 0.0
        self._drop_next = 0.0
        self._drop_count = 0
        self._last_drop_count = 0
        self._dropping = False

    # ------------------------------------------------------------ enqueue
    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.backlog_packets >= self.buffer_packets:
            self.dropped_packets += 1
            return False
        self._push(packet, now)
        return True

    # ------------------------------------------------------------ dequeue
    def _dodequeue(self, now: float) -> Tuple[Optional[Packet], bool]:
        """RFC 8289's ``dodequeue``: the head packet, and ``ok_to_drop``."""
        packet = self._pop(now)
        if packet is None:
            self._first_above_time = 0.0
            return None, False
        if (now - packet.enqueue_time < self.target
                or self.backlog_bytes <= MAXPACKET):
            self._first_above_time = 0.0
        elif self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
        elif now >= self._first_above_time:
            return packet, True
        return packet, False

    def _control_law(self, t: float) -> float:
        return t + self.interval / math.sqrt(self._drop_count)

    def _handle(self, packet: Packet, now: float) -> Optional[Packet]:
        """Drop or ECN-mark a packet selected by the control law."""
        if self.ecn and packet.ecn.is_ecn_capable:
            packet.ecn = apply_ce(packet.ecn)
            self.marked_packets += 1
            return packet
        self.dropped_packets += 1
        return None

    def dequeue(self, now: float) -> Optional[Packet]:
        """RFC 8289's ``dequeue``; its "drop" ECN-marks a capable packet
        and sends it on when ``ecn`` is set, as Linux's ``codel`` does."""
        packet, ok_to_drop = self._dodequeue(now)
        if self._dropping:
            if not ok_to_drop:
                self._dropping = False
            while self._dropping and now >= self._drop_next:
                self._drop_count += 1
                if self._handle(packet, now) is not None:
                    self._drop_next = self._control_law(self._drop_next)
                    return packet
                packet, ok_to_drop = self._dodequeue(now)
                if not ok_to_drop:
                    self._dropping = False
                else:
                    self._drop_next = self._control_law(self._drop_next)
        elif ok_to_drop:
            self._dropping = True
            delta = self._drop_count - self._last_drop_count
            self._drop_count = 1
            if delta > 1 and now - self._drop_next < 16 * self.interval:
                self._drop_count = delta
            self._drop_next = self._control_law(now)
            self._last_drop_count = self._drop_count
            if self._handle(packet, now) is None:
                packet, _ = self._dodequeue(now)
        return packet
