"""Unit tests for the two-queue coexistence machinery (§5.2)."""

import pytest

from repro.core import coexistence
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


def test_dual_queue_work_conserving_when_one_queue_empty(monkeypatch):
    monkeypatch.setattr(coexistence, "INITIAL_WEIGHT", 0.9)
    q = DualQueueABCQdisc()
    q.attach(FakeLink(10e6))
    for i in range(5):
        q.enqueue(legacy_pkt(i), 0.0)
    served = [q.dequeue(0.0) for _ in range(5)]
    assert all(p is not None for p in served)


def test_dual_queue_serves_in_weight_proportion_when_backlogged(monkeypatch):
    monkeypatch.setattr(coexistence, "INITIAL_WEIGHT", 0.75)
    monkeypatch.setattr(coexistence, "WEIGHT_INTERVAL", 1e9)
    q = DualQueueABCQdisc(controller=MaxMinWeightController())
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


def test_dual_queue_restarts_its_byte_count_when_the_weight_changes():
    """A new weight takes effect at once: the served-byte history is reset
    instead of paying back the old share first."""
    class SteppedWeight:
        weight = 0.5

        def compute_weight(self, now, capacity_bps):
            return self.weight

        def observe_departure(self, queue, flow_id, size, now):
            pass

    controller = SteppedWeight()
    q = DualQueueABCQdisc(controller=controller)
    q.attach(FakeLink(10e6))
    for i in range(200):
        q.enqueue(abc_pkt(i), 0.0)
        q.enqueue(legacy_pkt(i), 0.0)
    before = [q.dequeue(0.0).abc_capable for _ in range(40)]
    assert sum(before) == 20
    controller.weight = 0.9
    after = [q.dequeue(0.0).abc_capable for _ in range(20)]
    # From a fresh count, 9 ABC packets per legacy one; paying back the old
    # 50/50 history would serve ~160 ABC packets in a row.
    assert after == [True, False] + [True] * 9 + [False] + [True] * 8


def test_dual_queue_abc_capacity_scaled_by_weight(monkeypatch):
    monkeypatch.setattr(coexistence, "INITIAL_WEIGHT", 0.25)
    q = DualQueueABCQdisc()
    q.attach(FakeLink(16e6))
    assert q._abc_capacity(0.0) == pytest.approx(4e6)


def test_dual_queue_marks_abc_packets_only(monkeypatch):
    monkeypatch.setattr(coexistence, "WEIGHT_INTERVAL", 1e9)
    q = DualQueueABCQdisc(controller=MaxMinWeightController())
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


def test_dual_queue_queuing_delay_helpers():
    q = DualQueueABCQdisc()
    q.attach(FakeLink(12e6))
    for i in range(10):
        q.enqueue(abc_pkt(i), 0.0)
    assert q.abc_queuing_delay(0.0) > 0.0
    assert q.nonabc_queuing_delay(0.0) == 0.0


# ------------------------------------------------------------ max-min weights
def test_maxmin_controller_balanced_long_flows():
    ctrl = MaxMinWeightController()
    # Two backlogged flows per queue with equal rates.
    for t in range(10):
        now = t * 0.1
        for flow in (1, 2):
            ctrl.observe_departure("abc", flow, 12_000, now)
        for flow in (3, 4):
            ctrl.observe_departure("nonabc", flow, 12_000, now)
    weight = ctrl.compute_weight(1.5, capacity_bps=10e6)
    assert weight == pytest.approx(0.5, abs=0.05)


def test_maxmin_controller_short_flows_do_not_inflate_their_queue(monkeypatch):
    """§5.2: demand-limited short flows must not pull capacity toward their
    queue the way RCP's flow-count equalisation does."""
    monkeypatch.setattr(coexistence, "TOP_K", 2)
    ctrl = MaxMinWeightController()
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


def test_maxmin_controller_grants_short_flows_their_rate_in_full(monkeypatch):
    """The flows outside the top K are many demand-limited flows, not one:
    their 4 Mbit/s is more than one fair share of 10 Mbit/s among three keys,
    yet max-min over every flow on its own would grant all of it, leaving
    3 Mbit/s to each long flow."""
    monkeypatch.setattr(coexistence, "TOP_K", 1)
    ctrl = MaxMinWeightController()
    for t in range(10):
        now = t * 0.1
        ctrl.observe_departure("abc", 1, 60_000, now)
        ctrl.observe_departure("nonabc", 2, 60_000, now)
        for sf in range(10):
            ctrl.observe_departure("nonabc", 100 + sf, 5_000, now)
    weight = ctrl.compute_weight(1.0, capacity_bps=10e6)
    assert weight == pytest.approx(0.3)


def test_maxmin_controller_weight_bounded(monkeypatch):
    monkeypatch.setattr(coexistence, "WEIGHT_INTERVAL", 0.5)
    ctrl = MaxMinWeightController()
    for t in range(10):
        ctrl.observe_departure("abc", 1, 100_000, t * 0.1)
    weight = ctrl.compute_weight(2.0, capacity_bps=10e6)
    assert 0.05 <= weight <= 0.95


def test_maxmin_controller_holds_weight_between_intervals(monkeypatch):
    monkeypatch.setattr(coexistence, "WEIGHT_INTERVAL", 10.0)
    ctrl = MaxMinWeightController()
    ctrl.observe_departure("abc", 1, 1000, 0.0)
    assert ctrl.compute_weight(1.0, 10e6) == ctrl.last_weight


# ------------------------------------------------------------ zombie weights
def test_zombie_controller_weights_proportional_to_flow_counts(monkeypatch):
    monkeypatch.setattr(coexistence, "ZOMBIE_SEED", 5)
    ctrl = ZombieListWeightController()
    for t in range(4000):
        now = t * 0.001
        ctrl.observe_departure("abc", t % 2, 1500, now)          # 2 flows
        ctrl.observe_departure("nonabc", 100 + (t % 8), 1500, now)  # 8 flows
    weight = ctrl.compute_weight(0.0, 10e6)          # first call sets baseline
    weight = ctrl.compute_weight(5.0, 10e6)
    # The non-ABC queue holds more flows, so RCP-style weighting favours it.
    assert weight < 0.45
