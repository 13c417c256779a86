"""Tests for the AQM qdiscs (DropTail, CoDel, PIE).

CoDel is also checked against a spec reference: ``_ReferenceCoDel`` is
RFC 8289 §5's pseudocode, and a Hypothesis property drives it and
``CoDelQdisc`` with the same arrivals and dequeue clock.
"""

import collections
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aqm.codel import CoDelQdisc
from repro.aqm.droptail import DropTailQdisc
from repro.aqm.pie import PIEQdisc
from repro.cc.cubic import Cubic
from repro.simulator.packet import ECN, Packet
from tests.conftest import run_single_flow


def mk(seq, ecn=ECN.NOT_ECT):
    return Packet(flow_id=0, seq=seq, size=1500, ecn=ecn)


# ------------------------------------------------------------ CoDel unit
def test_codel_parameter_validation():
    with pytest.raises(ValueError):
        CoDelQdisc(target=0.0)
    with pytest.raises(ValueError):
        CoDelQdisc(interval=-1.0)


def test_codel_no_drops_below_target():
    q = CoDelQdisc(target=0.005, interval=0.1)
    now = 0.0
    for i in range(50):
        q.enqueue(mk(i), now)
        pkt = q.dequeue(now + 0.001)  # 1 ms sojourn, below 5 ms target
        assert pkt is not None
        now += 0.002
    assert q.dropped_packets == 0


def test_codel_drops_when_sojourn_persistently_high():
    q = CoDelQdisc(target=0.005, interval=0.05)
    # Fill a standing queue and drain it slowly so sojourn stays high.
    for i in range(200):
        q.enqueue(mk(i), i * 0.0001)
    now = 0.5
    delivered = 0
    for _ in range(200):
        pkt = q.dequeue(now)
        if pkt is None:
            break
        delivered += 1
        now += 0.01
    assert q.dropped_packets > 0
    assert delivered < 200


def test_codel_ecn_marks_instead_of_dropping():
    q = CoDelQdisc(target=0.005, interval=0.05, ecn=True)
    for i in range(200):
        q.enqueue(mk(i, ecn=ECN.ACCEL), i * 0.0001)
    now = 0.5
    marked = 0
    for _ in range(200):
        pkt = q.dequeue(now)
        if pkt is None:
            break
        if pkt.ecn == ECN.CE:
            marked += 1
        now += 0.01
    assert marked > 0
    assert q.dropped_packets == 0


def test_codel_tail_drop_when_buffer_full():
    q = CoDelQdisc(buffer_packets=2)
    assert q.enqueue(mk(0), 0.0)
    assert q.enqueue(mk(1), 0.0)
    assert not q.enqueue(mk(2), 0.0)


# ------------------------------------------------- CoDel against RFC 8289
class _ReferenceCoDel:
    """RFC 8289 §5's ``dodequeue`` / ``dequeue`` pseudocode, clocked by the
    caller: ``now`` is an argument and there is no engine.  The RFC's "drop"
    marks an ECN-capable packet and delivers it instead when ``ecn`` is on,
    as Linux's ``codel`` does.
    """

    MAXPACKET = 1500  # the RFC's ``maxpacket_``: the interface MTU

    def __init__(self, buffer_packets, target, interval, ecn):
        self.buffer_packets, self.target, self.interval = (
            buffer_packets, target, interval)
        self.ecn = ecn
        self.queue = collections.deque()  # (seq, size, ecn_capable, tstamp)
        self.bytes = 0
        self.first_above_time = self.drop_next = 0.0
        self.count = self.lastcount = 0
        self.dropping = False
        self.verdicts = {}  # seq -> "tail-drop" | "aqm-drop" | "ce-mark"

    def enqueue(self, seq, size, ecn_capable, now):
        if len(self.queue) >= self.buffer_packets:
            self.verdicts[seq] = "tail-drop"
            return False
        self.queue.append((seq, size, ecn_capable, now))
        self.bytes += size
        return True

    def _dodequeue(self, now):
        if not self.queue:
            self.first_above_time = 0.0
            return None, False
        p = self.queue.popleft()
        self.bytes -= p[1]
        if now - p[3] < self.target or self.bytes <= self.MAXPACKET:
            self.first_above_time = 0.0
        elif self.first_above_time == 0.0:
            self.first_above_time = now + self.interval
        elif now >= self.first_above_time:
            return p, True
        return p, False

    def _control_law(self, t):
        return t + self.interval / math.sqrt(self.count)

    def _drop(self, p):
        """True when ``p`` is CE-marked and goes on; False when dropped."""
        marked = self.ecn and p[2]
        self.verdicts[p[0]] = "ce-mark" if marked else "aqm-drop"
        return marked

    def dequeue(self, now):
        p, ok_to_drop = self._dodequeue(now)
        if self.dropping:
            if not ok_to_drop:
                self.dropping = False
            while now >= self.drop_next and self.dropping:
                self.count += 1
                if self._drop(p):
                    self.drop_next = self._control_law(self.drop_next)
                    break
                p, ok_to_drop = self._dodequeue(now)
                if not ok_to_drop:
                    self.dropping = False
                else:
                    self.drop_next = self._control_law(self.drop_next)
        elif ok_to_drop:
            marked = self._drop(p)
            self.dropping = True
            delta = self.count - self.lastcount
            self.count = 1
            if delta > 1 and now - self.drop_next < 16 * self.interval:
                self.count = delta
            self.drop_next = self._control_law(now)
            self.lastcount = self.count
            if not marked:
                p, _ = self._dodequeue(now)
        return None if p is None else p[0]


def _codel_schedule(rng):
    """Bursty arrivals ``(t, seq, size, ecn_capable)`` and dequeue times
    ``(t, None, ...)`` against a link clock that stalls now and then."""
    slot = rng.choice([0.0005, 0.001, 0.002])
    events, t, seq, phase_end, load = [], 0.0, 0, 0, 0.0
    for step in range(300):
        if step >= phase_end:  # alternate overload and idle-ish phases
            phase_end = step + rng.randrange(10, 150)
            load = (rng.uniform(1.2, 3.0) if load < 1.0
                    else rng.uniform(0.0, 0.8))
        while rng.random() < load / (1.0 + load):
            size = rng.choice((64, 576, 1500, 1500))
            events.append((t + rng.random() * slot, seq, size,
                           rng.random() < 0.5))
            seq += 1
        t += slot
        if rng.random() > 0.05:
            events.append((t, None, 0, False))
    return sorted(events, key=lambda event: event[0])


def _assert_codel_matches(reference, schedule):
    """Drive ``reference`` and a ``CoDelQdisc`` with its settings through
    ``schedule``: every dequeue sends the same packet, and every packet gets
    the same verdict."""
    qdisc = CoDelQdisc(buffer_packets=reference.buffer_packets,
                       target=reference.target, interval=reference.interval,
                       ecn=reference.ecn)
    verdicts, accepted, sent = {}, set(), []
    for now, seq, size, ecn_capable in schedule:
        if seq is None:
            packet = qdisc.dequeue(now)
            got = None if packet is None else packet.seq
            assert got == reference.dequeue(now), now
            if packet is not None:
                sent.append(got)
                if packet.ecn == ECN.CE:
                    verdicts[got] = "ce-mark"
            continue
        packet = Packet(flow_id=0, seq=seq, size=size,
                        ecn=ECN.BRAKE if ecn_capable else ECN.NOT_ECT)
        admitted = qdisc.enqueue(packet, now)
        assert admitted == reference.enqueue(seq, size, ecn_capable, now)
        if admitted:
            accepted.add(seq)
        else:
            verdicts[seq] = "tail-drop"
    queued = [packet.seq for packet in qdisc._queue]
    assert queued == [p[0] for p in reference.queue]
    verdicts.update(dict.fromkeys(accepted - set(sent) - set(queued),
                                  "aqm-drop"))
    assert verdicts == reference.verdicts
    counts = collections.Counter(verdicts.values())
    assert qdisc.dropped_packets == counts["tail-drop"] + counts["aqm-drop"]
    assert qdisc.marked_packets == counts["ce-mark"]


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ecn=st.booleans(),
       buffer_packets=st.sampled_from((6, 40, 1000)),
       target=st.sampled_from((0.001, 0.002, 0.005)),
       interval=st.sampled_from((0.005, 0.01, 0.02)))
def test_codel_matches_rfc8289_reference(seed, ecn, buffer_packets, target,
                                         interval):
    reference = _ReferenceCoDel(buffer_packets, target, interval, ecn)
    _assert_codel_matches(reference, _codel_schedule(random.Random(seed)))


#: An entry drop at 13 ms, then the queue runs empty; a burst of four MTUs
#: arrives at 16 ms, and its first packet has sat above target when it
#: reaches the head.
_EMPTY_AFTER_ENTRY = (
    [(0.0, seq, 1500, False) for seq in range(4)]
    + [(now, None, 0, False) for now in (0.002, 0.013, 0.014, 0.015)]
    + [(0.016, seq, 1500, False) for seq in range(4, 8)]
    + [(now, None, 0, False) for now in (0.018, 0.020)])


def test_codel_resets_first_above_time_across_an_empty_queue():
    """An empty queue resets ``first_above_time``: the burst after it starts
    a new interval, so its first packet goes out instead of being dropped
    at once."""
    reference = _ReferenceCoDel(1000, 0.001, 0.01, False)
    _assert_codel_matches(reference, _EMPTY_AFTER_ENTRY)
    assert reference.verdicts == {1: "aqm-drop"}
    assert reference.first_above_time == 0.018 + 0.01
    assert [p[0] for p in reference.queue] == [6, 7]


# ------------------------------------------------------------ PIE unit
def test_pie_parameter_validation():
    with pytest.raises(ValueError):
        PIEQdisc(target=0.0)
    with pytest.raises(ValueError):
        PIEQdisc(t_update=0.0)


def test_pie_probability_rises_with_standing_queue():
    q = PIEQdisc(target=0.015, t_update=0.015)
    now = 0.0
    # Build a large standing queue drained at 1/10th the arrival rate.
    for i in range(600):
        q.enqueue(mk(i), now)
        if i % 10 == 0:
            q.dequeue(now)
        now += 0.001
    assert q.drop_prob > 0.0
    assert q.dropped_packets > 0


def test_pie_no_drops_when_queue_short():
    q = PIEQdisc()
    now = 0.0
    for i in range(100):
        q.enqueue(mk(i), now)
        q.dequeue(now + 0.0005)
        now += 0.001
    assert q.dropped_packets == 0


# ------------------------------------------------------------ edge paths
def test_pie_tail_drops_when_buffer_full():
    q = PIEQdisc(buffer_packets=3)
    for i in range(3):
        assert q.enqueue(mk(i), 0.0)
    dropped_before = q.dropped_packets
    assert not q.enqueue(mk(3), 0.0)
    assert q.dropped_packets == dropped_before + 1
    assert q.backlog_packets == 3


def test_pie_marks_ecn_capable_at_low_drop_prob():
    q = PIEQdisc(buffer_packets=50, ecn=True, seed=4)
    for i in range(10):
        q.enqueue(mk(i), 0.0)
    # A standing queue past the burst allowance with a small drop
    # probability: ECN-capable packets are marked instead of dropped
    # (RFC 8033 switches to dropping above p = 0.1).
    q._burst_allowance = 0.0
    q._avg_dq_rate_bps = 8e6  # 10 x 1500 B backlog -> 15 ms > target/2
    q.drop_prob = 0.05
    marked = 0
    dropped_before = q.dropped_packets
    for i in range(10, 400):
        before = q.marked_packets
        assert q.enqueue(mk(i, ecn=ECN.BRAKE), 0.0)
        marked += q.marked_packets - before
        q.dequeue(0.0)  # keep the standing queue at ten packets
    assert marked > 0
    # ECN-capable traffic below the cliff is marked, never dropped.
    assert q.dropped_packets == dropped_before


def test_pie_dequeue_empty_returns_none():
    q = PIEQdisc(buffer_packets=10)
    assert q.dequeue(0.0) is None


def test_pie_delay_estimate_fallbacks():
    q = PIEQdisc(buffer_packets=50)
    # No departures yet and no link attached: no rate to divide by.
    q.enqueue(mk(0), 0.0)
    assert q._estimate_delay() == 0.0

    class _StubEnv:
        now = 0.0

    class _StubLink:
        env = _StubEnv()

        def capacity_bps(self, now):
            return 12e6

    q.attach(_StubLink())
    # Little's law against the link capacity until the departure-rate EWMA
    # has a sample: 1500 bytes at 12 Mbit/s = 1 ms.
    assert q._estimate_delay() == pytest.approx(1500 * 8.0 / 12e6)


def test_codel_dequeue_empty_resets_dropping_state():
    q = CoDelQdisc(target=0.001, interval=0.01)
    assert q.dequeue(0.0) is None
    q._dropping = True
    assert q.dequeue(1.0) is None
    assert q._dropping is False


# ------------------------------------------------------------ integration
def test_cubic_over_droptail_builds_bufferbloat(short_trace):
    result, link, flow = run_single_flow(Cubic(), DropTailQdisc(250), short_trace)
    assert result.link_utilization(link) > 0.8
    assert flow.stats.delay_percentile(95, kind="queuing") > 0.2  # > 200 ms


def test_codel_cuts_cubic_delay(short_trace):
    bloat_result, _, bloat_flow = run_single_flow(Cubic(), DropTailQdisc(250),
                                                  short_trace)
    codel_result, _, codel_flow = run_single_flow(Cubic(), CoDelQdisc(250),
                                                  short_trace)
    bloat_delay = bloat_flow.stats.mean_delay(kind="queuing")
    codel_delay = codel_flow.stats.mean_delay(kind="queuing")
    assert codel_delay < bloat_delay / 2.0


def test_pie_cuts_cubic_delay(short_trace):
    bloat_result, _, bloat_flow = run_single_flow(Cubic(), DropTailQdisc(250),
                                                  short_trace)
    pie_result, _, pie_flow = run_single_flow(Cubic(), PIEQdisc(250), short_trace)
    assert (pie_flow.stats.mean_delay(kind="queuing")
            < bloat_flow.stats.mean_delay(kind="queuing") / 2.0)
