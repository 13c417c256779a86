"""Tests for the qdisc base class and the FIFO/drop-tail queue."""

import pytest

from repro.aqm.droptail import DropTailQdisc
from repro.simulator.packet import Packet
from repro.simulator.qdisc import FifoQdisc, Qdisc


def mk(seq, size=1500, flow=0):
    return Packet(flow_id=flow, seq=seq, size=size)


def test_buffer_must_be_positive():
    with pytest.raises(ValueError):
        FifoQdisc(buffer_packets=0)


def test_fifo_order_preserved():
    q = FifoQdisc(buffer_packets=10)
    for i in range(5):
        assert q.enqueue(mk(i), now=float(i))
    seqs = [q.dequeue(10.0).seq for _ in range(5)]
    assert seqs == [0, 1, 2, 3, 4]


def test_backlog_accounting():
    q = FifoQdisc(buffer_packets=10)
    q.enqueue(mk(0, size=1000), 0.0)
    q.enqueue(mk(1, size=500), 0.0)
    assert q.backlog_packets == 2
    assert q.backlog_bytes == 1500
    assert len(q) == 2
    q.dequeue(1.0)
    assert q.backlog_packets == 1
    assert q.backlog_bytes == 500


def test_droptail_drops_when_full():
    q = DropTailQdisc(buffer_packets=3)
    assert all(q.enqueue(mk(i), 0.0) for i in range(3))
    assert not q.enqueue(mk(3), 0.0)
    assert q.dropped_packets == 1
    assert q.backlog_packets == 3


def test_dequeue_empty_returns_none():
    q = FifoQdisc()
    assert q.dequeue(0.0) is None
    assert q.backlog_packets == 0 and len(q) == 0


def test_peek_does_not_remove():
    q = FifoQdisc()
    q.enqueue(mk(7), 0.0)
    assert q.peek().seq == 7
    assert q.backlog_packets == 1


def test_queuing_delay_uses_capacity():
    q = FifoQdisc()
    q.enqueue(mk(0, size=1500), 0.0)
    q.enqueue(mk(1, size=1500), 0.0)
    # 3000 bytes at 1 Mbit/s -> 24 ms
    assert q.queuing_delay(0.0, 1e6) == pytest.approx(0.024)
    assert q.queuing_delay(0.0, 0.0) == 0.0


def test_dequeue_accumulates_total_queuing_delay():
    q = FifoQdisc()
    q.enqueue(mk(0), 1.0)
    pkt = q.dequeue(1.4)
    assert pkt.total_queuing_delay == pytest.approx(0.4)


def test_total_queuing_delay_accumulates_across_hops():
    q1, q2 = FifoQdisc(), FifoQdisc()
    pkt = mk(0)
    q1.enqueue(pkt, 0.0)
    pkt = q1.dequeue(0.3)
    q2.enqueue(pkt, 1.0)
    pkt = q2.dequeue(1.2)
    assert pkt.total_queuing_delay == pytest.approx(0.5)


def test_base_class_requires_overrides():
    q = Qdisc()
    with pytest.raises(NotImplementedError):
        q.enqueue(mk(0), 0.0)
    with pytest.raises(NotImplementedError):
        q.dequeue(0.0)
