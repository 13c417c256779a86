"""Tests for the analysis utilities: metrics, fairness, top-K, max-min, zombie."""

import pytest

from repro.analysis import (SpaceSaving, ZombieList, jain_fairness_index,
                            max_min_allocation)
from repro.analysis.fairness import relative_std, throughput_ratio
from repro.analysis.metrics import (is_outside_frontier, mean,
                                    normalize_to_reference, pareto_frontier,
                                    percentile, utilization)


# ------------------------------------------------------------ metrics
def test_utilization_basic_and_clipped():
    assert utilization(5e6, 10e6) == pytest.approx(0.5)
    assert utilization(11e6, 10e6) == 1.0
    assert utilization(1.0, 0.0) == 0.0


def test_percentile_and_mean():
    values = [1, 2, 3, 4, 5]
    assert percentile(values, 50) == 3
    assert mean(values) == 3
    assert percentile([], 95) == 0.0
    assert mean([]) == 0.0


def test_normalize_to_reference():
    norm = normalize_to_reference({"abc": 2.0, "cubic": 1.0}, "abc")
    assert norm["abc"] == 1.0
    assert norm["cubic"] == 0.5
    with pytest.raises(KeyError):
        normalize_to_reference({"cubic": 1.0}, "abc")
    with pytest.raises(ValueError):
        normalize_to_reference({"abc": 0.0}, "abc")


def test_pareto_frontier_excludes_dominated_points():
    points = [("a", 100.0, 0.9), ("b", 200.0, 0.8), ("c", 150.0, 0.95),
              ("d", 90.0, 0.5)]
    frontier = pareto_frontier(points)
    names = {name for name, _, _ in frontier}
    assert "b" not in names          # dominated by c (lower delay, more tput)
    assert "a" in names and "c" in names


def test_is_outside_frontier():
    frontier = [(100.0, 0.7), (200.0, 0.9)]
    assert is_outside_frontier((100.0, 0.95), frontier)     # dominates
    assert not is_outside_frontier((150.0, 0.65), frontier)  # dominated by (100, 0.7)
    assert not is_outside_frontier((250.0, 0.85), frontier)  # dominated by (200, 0.9)


# ------------------------------------------------------------ fairness
def test_jain_index_equal_allocations():
    assert jain_fairness_index([5, 5, 5, 5]) == pytest.approx(1.0)


def test_jain_index_single_hog():
    n = 10
    index = jain_fairness_index([1.0] + [0.0] * (n - 1))
    assert index == pytest.approx(1.0 / n)


def test_jain_index_validation():
    with pytest.raises(ValueError):
        jain_fairness_index([])
    with pytest.raises(ValueError):
        jain_fairness_index([1.0, -2.0])


def test_throughput_ratio_and_relative_std():
    assert throughput_ratio([2.0, 2.0], [1.0, 3.0]) == pytest.approx(1.0)
    assert relative_std([5.0, 5.0]) == 0.0
    assert relative_std([0.0, 10.0]) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        throughput_ratio([], [1.0])


# ------------------------------------------------------------ Space-Saving
def test_space_saving_exact_when_under_capacity():
    ss = SpaceSaving(capacity=10)
    for key, count in [("a", 5), ("b", 3), ("c", 2)]:
        for _ in range(count):
            ss.update(key)
    assert ss.estimate("a") == 5
    assert ss.top(2) == [("a", 5), ("b", 3)]
    assert ss.error_bound("a") == 0


def test_space_saving_bounded_size_and_heavy_hitters():
    ss = SpaceSaving(capacity=5)
    # 3 heavy keys plus 50 one-hit wonders.
    for _ in range(100):
        ss.update("hot-1", 10)
    for _ in range(80):
        ss.update("hot-2", 10)
    for _ in range(60):
        ss.update("hot-3", 10)
    for i in range(50):
        ss.update(f"cold-{i}", 1)
    assert len(ss) <= 5
    top = [key for key, _ in ss.top(3)]
    assert set(top) == {"hot-1", "hot-2", "hot-3"}


def test_space_saving_overestimates_bounded_by_error():
    ss = SpaceSaving(capacity=2)
    ss.update("a", 10)
    ss.update("b", 10)
    ss.update("c", 1)  # evicts the minimum and inherits its count
    assert ss.estimate("c") == 11
    assert ss.error_bound("c") == 10


def test_space_saving_validation_and_reset():
    with pytest.raises(ValueError):
        SpaceSaving(capacity=0)
    ss = SpaceSaving(capacity=2)
    with pytest.raises(ValueError):
        ss.update("a", -1)
    ss.update("a", 5)
    ss.reset()
    assert ss.total == 0 and len(ss) == 0


# ------------------------------------------------------------ max-min
def test_max_min_unconstrained_demands_fully_served():
    alloc = max_min_allocation({"a": 2.0, "b": 3.0}, capacity=10.0)
    assert alloc["a"] == pytest.approx(2.0)
    assert alloc["b"] == pytest.approx(3.0)


def test_max_min_equal_split_when_all_backlogged():
    alloc = max_min_allocation({"a": 100.0, "b": 100.0, "c": 100.0}, capacity=9.0)
    assert all(v == pytest.approx(3.0) for v in alloc.values())


def test_max_min_demand_limited_flow_gets_demand_others_share_rest():
    alloc = max_min_allocation({"small": 1.0, "big1": 100.0, "big2": 100.0},
                               capacity=11.0)
    assert alloc["small"] == pytest.approx(1.0)
    assert alloc["big1"] == pytest.approx(5.0)
    assert alloc["big2"] == pytest.approx(5.0)


def test_max_min_total_never_exceeds_capacity():
    alloc = max_min_allocation({"a": 5.0, "b": 7.0, "c": 11.0}, capacity=10.0)
    assert sum(alloc.values()) <= 10.0 + 1e-9


def test_max_min_zero_capacity_and_validation():
    assert all(v == 0.0 for v in max_min_allocation({"a": 5.0}, 0.0).values())
    with pytest.raises(ValueError):
        max_min_allocation({"a": 1.0}, -1.0)


# ------------------------------------------------------------ Zombie list
def test_zombie_list_counts_single_flow():
    z = ZombieList(size=16, alpha=0.1, seed=1)
    for _ in range(500):
        z.observe("flow-0")
    assert z.estimated_flow_count() == pytest.approx(1.0, abs=0.3)


def test_zombie_list_counts_many_flows():
    z = ZombieList(size=64, alpha=0.05, seed=2)
    for i in range(4000):
        z.observe(f"flow-{i % 20}")
    assert 10 <= z.estimated_flow_count() <= 40


def test_zombie_list_more_flows_bigger_estimate():
    def estimate(n_flows):
        z = ZombieList(size=64, alpha=0.05, seed=3)
        for i in range(4000):
            z.observe(f"flow-{i % n_flows}")
        return z.estimated_flow_count()

    assert estimate(16) > estimate(2)


def test_zombie_list_estimate_before_any_hits():
    # Until the EWMA has seen a hit, the estimate falls back to the zombie
    # count itself (and never below one flow).
    z = ZombieList(size=8, alpha=0.1, seed=5)
    assert z.estimated_flow_count() == 1.0
    for i in range(4):
        z.observe(f"flow-{i}")  # all distinct: every comparison misses
    assert z._hit_probability <= 1e-6
    assert z.estimated_flow_count() == float(len(z._zombies))


def test_space_saving_rejects_negative_amount():
    ss = SpaceSaving(capacity=4)
    with pytest.raises(ValueError, match="non-negative"):
        ss.update("k", -1.0)


def test_zombie_list_validation_and_reset():
    with pytest.raises(ValueError):
        ZombieList(size=0)
    with pytest.raises(ValueError):
        ZombieList(alpha=0.0)
    z = ZombieList()
    z.observe("a")
    z.reset()
    assert z.packets_seen == 0
