"""Unit tests for the two-queue coexistence machinery (§5.2)."""

import pytest

from repro.core.coexistence import (DualQueueABCQdisc, MaxMinWeightController,
                                    ZombieListWeightController)
from repro.simulator.packet import ECN, Packet


class FakeLink:
    def __init__(self, rate_bps):
        self.rate = rate_bps
        self.env = type("E", (), {"now": 0.0})()

    def capacity_bps(self, now):
        return self.rate


def abc_pkt(seq, flow=1):
    return Packet(flow_id=flow, seq=seq, ecn=ECN.ACCEL, abc_capable=True)


def legacy_pkt(seq, flow=2):
    return Packet(flow_id=flow, seq=seq)


# ------------------------------------------------------------ classification
def test_packets_classified_by_abc_capability():
    q = DualQueueABCQdisc()
    q.attach(FakeLink(10e6))
    q.enqueue(abc_pkt(0), 0.0)
    q.enqueue(legacy_pkt(0), 0.0)
    assert q.abc_queue.backlog_packets == 1
    assert q.nonabc_queue.backlog_packets == 1
    assert q.backlog_packets == 2


def test_dual_queue_dequeue_updates_backlog():
    q = DualQueueABCQdisc()
    q.attach(FakeLink(10e6))
    q.enqueue(abc_pkt(0), 0.0)
    q.enqueue(legacy_pkt(0), 0.0)
    assert q.dequeue(0.0) is not None
    assert q.dequeue(0.0) is not None
    assert q.dequeue(0.0) is None
    assert q.backlog_packets == 0


def test_dual_queue_work_conserving_when_one_queue_empty():
    q = DualQueueABCQdisc(initial_weight=0.9)
    q.attach(FakeLink(10e6))
    for i in range(5):
        q.enqueue(legacy_pkt(i), 0.0)
    served = [q.dequeue(0.0) for _ in range(5)]
    assert all(p is not None for p in served)


def test_dual_queue_serves_in_weight_proportion_when_backlogged():
    q = DualQueueABCQdisc(initial_weight=0.75,
                          controller=MaxMinWeightController(interval=1e9))
    q.attach(FakeLink(10e6))
    for i in range(400):
        q.enqueue(abc_pkt(i), 0.0)
        q.enqueue(legacy_pkt(i), 0.0)
    abc_served = 0
    for _ in range(200):
        pkt = q.dequeue(0.0)
        if pkt.abc_capable:
            abc_served += 1
    assert abc_served == pytest.approx(150, abs=10)  # ≈ 75 % of 200


def test_dual_queue_abc_capacity_scaled_by_weight():
    q = DualQueueABCQdisc(initial_weight=0.25)
    q.attach(FakeLink(16e6))
    assert q._abc_capacity(0.0) == pytest.approx(4e6)


def test_dual_queue_marks_abc_packets_only():
    q = DualQueueABCQdisc(initial_weight=0.5,
                          controller=MaxMinWeightController(interval=1e9))
    q.attach(FakeLink(2e6))
    now = 0.0
    for i in range(300):
        q.enqueue(abc_pkt(i), now)
        q.enqueue(legacy_pkt(i), now)
    seen_brake = False
    for _ in range(600):
        pkt = q.dequeue(now)
        if pkt is None:
            break
        if pkt.abc_capable:
            assert pkt.ecn in (ECN.ACCEL, ECN.BRAKE)
            seen_brake = seen_brake or pkt.ecn == ECN.BRAKE
        else:
            assert pkt.ecn == ECN.NOT_ECT
        now += 0.001
    assert seen_brake


def test_dual_queue_weight_validation():
    with pytest.raises(ValueError):
        DualQueueABCQdisc(initial_weight=0.0)
    with pytest.raises(ValueError):
        DualQueueABCQdisc(initial_weight=1.0)


def test_dual_queue_queuing_delay_helpers():
    q = DualQueueABCQdisc(initial_weight=0.5)
    q.attach(FakeLink(12e6))
    for i in range(10):
        q.enqueue(abc_pkt(i), 0.0)
    assert q.abc_queuing_delay(0.0) > 0.0
    assert q.nonabc_queuing_delay(0.0) == 0.0


# ------------------------------------------------------------ max-min weights
def test_maxmin_controller_balanced_long_flows():
    ctrl = MaxMinWeightController(interval=1.0)
    # Two backlogged flows per queue with equal rates.
    for t in range(10):
        now = t * 0.1
        for flow in (1, 2):
            ctrl.observe_departure("abc", flow, 12_000, now)
        for flow in (3, 4):
            ctrl.observe_departure("nonabc", flow, 12_000, now)
    weight = ctrl.compute_weight(1.5, capacity_bps=10e6)
    assert weight == pytest.approx(0.5, abs=0.05)


def test_maxmin_controller_short_flows_do_not_inflate_their_queue():
    """§5.2: demand-limited short flows must not pull capacity toward their
    queue the way RCP's flow-count equalisation does."""
    ctrl = MaxMinWeightController(interval=1.0, top_k=2)
    for t in range(10):
        now = t * 0.1
        # One long ABC flow using ~4.8 Mbit/s.
        ctrl.observe_departure("abc", 1, 60_000, now)
        # One long non-ABC flow using ~4.8 Mbit/s plus 20 tiny short flows.
        ctrl.observe_departure("nonabc", 2, 60_000, now)
        for sf in range(20):
            ctrl.observe_departure("nonabc", 100 + sf, 500, now)
    weight = ctrl.compute_weight(1.5, capacity_bps=10e6)
    # The ABC long flow should keep roughly half of the long-flow capacity:
    # its queue weight must not collapse because the other queue has many
    # (demand-limited) flows.
    assert weight > 0.4


def test_maxmin_controller_weight_bounded():
    ctrl = MaxMinWeightController(interval=0.5, minimum_weight=0.05)
    for t in range(10):
        ctrl.observe_departure("abc", 1, 100_000, t * 0.1)
    weight = ctrl.compute_weight(2.0, capacity_bps=10e6)
    assert 0.05 <= weight <= 0.95


def test_maxmin_controller_holds_weight_between_intervals():
    ctrl = MaxMinWeightController(interval=10.0)
    ctrl.observe_departure("abc", 1, 1000, 0.0)
    assert ctrl.compute_weight(1.0, 10e6) == ctrl.last_weight


def test_maxmin_controller_validation():
    with pytest.raises(ValueError):
        MaxMinWeightController(top_k=0)
    with pytest.raises(ValueError):
        MaxMinWeightController(interval=0.0)
    with pytest.raises(ValueError):
        MaxMinWeightController(demand_headroom=-0.1)


# ------------------------------------------------------------ zombie weights
def test_zombie_controller_weights_proportional_to_flow_counts():
    ctrl = ZombieListWeightController(interval=1.0, seed=5)
    for t in range(4000):
        now = t * 0.001
        ctrl.observe_departure("abc", t % 2, 1500, now)          # 2 flows
        ctrl.observe_departure("nonabc", 100 + (t % 8), 1500, now)  # 8 flows
    weight = ctrl.compute_weight(0.0, 10e6)          # first call sets baseline
    weight = ctrl.compute_weight(5.0, 10e6)
    # The non-ABC queue holds more flows, so RCP-style weighting favours it.
    assert weight < 0.45


def test_zombie_controller_validation():
    with pytest.raises(ValueError):
        ZombieListWeightController(interval=0.0)
