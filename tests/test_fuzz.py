"""Unit tests for the scenario-fuzzing subsystem, one section per layer.

The generator must be deterministic and always-valid; each invariant checker
must stay quiet on a healthy run and fire when the corresponding accounting
is (artificially) broken; the shrinker must minimize against a pure
predicate; and a small campaign must be reproducible end-to-end.
"""

from __future__ import annotations

import json

import pytest

from repro.fuzz.campaign import evaluate_scenario, fuzz_cell, run_campaign
from repro.fuzz.generator import (CHURN_CCS, CROSS_TRAFFIC_SCHEMES, NATIVE,
                                  FlowSpec, FuzzScenario, LinkSpec,
                                  ScenarioGen, SmallMetroGen)
from repro.fuzz.invariants import (FAIRNESS_FLOOR, check_fairness,
                                   check_link_throughput, check_non_negative,
                                   check_packet_conservation,
                                   check_queuing_delay, fairness_applies,
                                   run_invariants, run_scenario,
                                   scenario_summary)
from repro.fuzz.shrink import (corpus_entry, load_corpus_entry,
                               save_corpus_entry, shrink_scenario)
from repro.runtime import SweepExecutor


def _tiny_scenario(scheme: str = "cubic", n_flows: int = 1,
                   duration: float = 1.5, **link_kwargs) -> FuzzScenario:
    link = LinkSpec(kind="constant", params={"rate_bps": 5e6},
                    buffer_packets=50, **link_kwargs)
    flows = [FlowSpec(cc=NATIVE, rtt=0.05, start_time=0.0)
             for _ in range(n_flows)]
    return FuzzScenario(scenario_id=0, scheme=scheme, duration=duration,
                        links=[link], flows=flows, sim_seed=7)


# ================================================================ generator
def test_generator_is_deterministic():
    a = ScenarioGen(seed=3)
    b = ScenarioGen(seed=3)
    for i in range(20):
        assert a.sample(i).to_jsonable() == b.sample(i).to_jsonable()
    # Different seeds diverge (overwhelmingly likely over 20 samples).
    c = ScenarioGen(seed=4)
    assert any(a.sample(i).to_jsonable() != c.sample(i).to_jsonable()
               for i in range(20))


def test_generator_samples_are_valid_and_varied():
    gen = ScenarioGen(seed=11)
    scenarios = gen.sample_many(60)
    kinds, schemes, flow_counts = set(), set(), set()
    for fuzz in scenarios:
        fuzz.validate()  # raises on an invalid sample
        kinds.add(fuzz.links[0].kind)
        schemes.add(fuzz.scheme)
        flow_counts.add(len(fuzz.flows))
        for flow in fuzz.flows:
            if flow.cc != NATIVE:
                assert fuzz.scheme in CROSS_TRAFFIC_SCHEMES
    assert kinds == {"constant", "square", "cellular"}
    assert len(schemes) >= 5
    assert flow_counts == {1, 2, 3}


def test_scenario_json_round_trip():
    fuzz = ScenarioGen(seed=2).sample(5)
    encoded = json.dumps(fuzz.to_jsonable(), sort_keys=True)
    restored = FuzzScenario.from_jsonable(json.loads(encoded))
    assert restored == fuzz
    assert restored.signature() == fuzz.signature()


def test_scenario_validation_rejects_bad_inputs():
    with pytest.raises(ValueError, match="at least one flow"):
        FuzzScenario(scenario_id=0, scheme="cubic", duration=1.0,
                     links=[LinkSpec(kind="constant",
                                     params={"rate_bps": 1e6})],
                     flows=[]).validate()
    with pytest.raises(ValueError, match="cross-traffic"):
        FuzzScenario(scenario_id=0, scheme="xcp", duration=1.0,
                     links=[LinkSpec(kind="constant",
                                     params={"rate_bps": 1e6})],
                     flows=[FlowSpec(cc="cubic")]).validate()
    with pytest.raises(ValueError, match="starts after"):
        _tiny = _tiny_scenario()
        _tiny.flows[0].start_time = 99.0
        _tiny.validate()
    with pytest.raises(ValueError, match="bottleneck"):
        FuzzScenario(scenario_id=0, scheme="cubic", duration=1.0,
                     links=[LinkSpec(kind="constant",
                                     params={"rate_bps": 1e6}, role="wired")],
                     flows=[FlowSpec()]).validate()


def test_signature_groups_structurally_similar_scenarios():
    a = _tiny_scenario()
    b = _tiny_scenario()
    b.links[0].params["rate_bps"] = 9e6  # numeric difference only
    b.flows[0].rtt = 0.11
    assert a.signature() == b.signature()
    c = _tiny_scenario(n_flows=2)
    assert a.signature() != c.signature()


# ================================================================ small metro
def test_finite_flow_departs_after_its_transfer():
    fuzz = _tiny_scenario(duration=2.0)
    fuzz.flows[0].size_bytes = 60_000
    ctx = run_scenario(fuzz)
    flow = ctx.built.flows[0]
    assert flow.sender.completion_time is not None
    assert flow.stats.bytes_received == 60_000
    # A departed flow stops transmitting: everything sent was needed for the
    # transfer (plus retransmissions).
    assert flow.sender.packets_sent <= (60_000 // 1000 + 1
                                        + flow.sender.retransmissions + 2)
    assert run_invariants(ctx) == []


def test_flow_spec_rejects_non_positive_size():
    with pytest.raises(ValueError, match="size_bytes"):
        FlowSpec(cc=NATIVE, rtt=0.05, size_bytes=0).validate()


def test_small_metro_city_deterministic_and_valid():
    first = SmallMetroGen(seed=5).sample_city(0)
    second = SmallMetroGen(seed=5).sample_city(0)
    assert ([cell.to_jsonable() for cell in first]
            == [cell.to_jsonable() for cell in second])
    assert 10 <= len(first) <= 20
    churn = [flow for cell in first for flow in cell.flows
             if flow.size_bytes is not None]
    assert churn, "a metro city must have churn on"
    assert {flow.cc for flow in churn} <= {NATIVE} | set(CHURN_CCS)
    for cell in first:
        cell.validate()  # raises on an invalid cell
        assert cell.scheme == "abc"
        assert any(flow.size_bytes is None for flow in cell.flows)
    # JSON round-trip covers the new size_bytes field.
    encoded = json.dumps([cell.to_jsonable() for cell in first])
    assert [FuzzScenario.from_jsonable(data) for data in json.loads(encoded)] \
        == first


def test_small_metro_cells_satisfy_invariant_net():
    city = SmallMetroGen(seed=3, min_cells=10, max_cells=12).sample_city(1)
    # Full-city sweeps belong to the fuzz campaign; tier-1 checks a slice of
    # cells end to end, enough to cover both link kinds and churn departure.
    departed = 0
    for cell in city[:4]:
        ctx = run_scenario(cell)
        violations = run_invariants(ctx)
        assert violations == [], (cell.scenario_id,
                                  [v.message for v in violations])
        for spec, flow in zip(cell.flows, ctx.built.flows):
            if (spec.size_bytes is not None
                    and flow.sender.completion_time is not None):
                departed += 1
                assert flow.stats.bytes_received == spec.size_bytes
    assert departed > 0, "no churn flow completed in the sampled slice"


# ================================================================ invariants
def test_healthy_run_has_no_violations():
    ctx = run_scenario(_tiny_scenario())
    assert run_invariants(ctx) == []


def test_random_loss_run_has_no_violations():
    fuzz = _tiny_scenario(loss_rate=0.02, loss_seed=9)
    ctx = run_scenario(fuzz)
    assert run_invariants(ctx) == []
    bottleneck = ctx.built.scenario.links[0]
    assert bottleneck.random_loss_packets > 0  # the loss model did engage


def test_conservation_checker_fires_on_broken_counter():
    ctx = run_scenario(_tiny_scenario())
    ctx.built.scenario.links[0].arrived_packets += 1
    names = [v.invariant for v in check_packet_conservation(ctx)]
    assert names == ["packet-conservation"]


def test_non_negative_checker_fires_on_negative_backlog_and_cwnd():
    ctx = run_scenario(_tiny_scenario())
    link = ctx.built.scenario.links[0]
    # One probe call per 50 ms of the 1.5 s run (0 … ≈1.45 s: the float sum
    # overshoots 1.5), sampling the window and the queue together.
    assert len(ctx.backlog_samples[link.name]) == 30
    assert len(ctx.cwnd_samples[ctx.built.flows[0].flow_id]) == 30
    assert check_non_negative(ctx) == []
    ctx.backlog_samples[link.name].append(-2)
    assert [v.invariant for v in check_non_negative(ctx)] == ["non-negative"]
    link.qdisc.backlog_packets = -1
    flow_id = ctx.built.flows[0].flow_id
    ctx.cwnd_samples[flow_id].append(-5.0)
    names = {v.invariant for v in check_non_negative(ctx)}
    assert names == {"non-negative"}
    assert len(check_non_negative(ctx)) == 3


def test_throughput_checker_fires_on_impossible_delivery():
    ctx = run_scenario(_tiny_scenario())
    link = ctx.built.scenario.links[0]
    # Forge a gigabyte departing at the end of the run.
    link.departure_times.append(ctx.fuzz.duration)
    link.departure_bytes.append(10**9)
    names = [v.invariant for v in check_link_throughput(ctx)]
    assert names == ["link-throughput"]


def test_queuing_delay_checker_fires_on_impossible_delay():
    ctx = run_scenario(_tiny_scenario())
    ctx.built.flows[0].stats.queuing_delays.append(999.0)
    names = [v.invariant for v in check_queuing_delay(ctx)]
    assert names == ["queuing-delay-bound"]


def test_fairness_gate_and_checker():
    symmetric = _tiny_scenario(scheme="abc", n_flows=2, duration=2.0)
    assert fairness_applies(symmetric)
    # Gate closes on: cross traffic, unequal RTTs, late joiners, random loss.
    cross = _tiny_scenario(scheme="abc", n_flows=2)
    cross.flows[1].cc = "cubic"
    assert not fairness_applies(cross)
    unequal = _tiny_scenario(scheme="abc", n_flows=2)
    unequal.flows[1].rtt = 0.19
    assert not fairness_applies(unequal)
    # Any staggered join is excluded: a flow arriving against an established
    # competitor converges over tens of RTTs, which short runs don't grant.
    late = _tiny_scenario(scheme="abc", n_flows=2)
    late.flows[1].start_time = 0.2
    assert not fairness_applies(late)
    lossy = _tiny_scenario(scheme="abc", n_flows=2, loss_rate=0.01)
    assert not fairness_applies(lossy)

    ctx = run_scenario(symmetric)
    assert check_fairness(ctx) == []
    # Starve one flow's recorded deliveries: Jain index of (x, 0) is 0.5.
    starved = ctx.built.flows[1].stats
    starved.recv_times.clear()
    starved.sizes.clear()
    assert 0.5 < FAIRNESS_FLOOR
    names = [v.invariant for v in check_fairness(ctx)]
    assert names == ["fairness"]


def test_summary_is_reproducible_and_plain_data():
    fuzz = _tiny_scenario(scheme="abc", n_flows=2)
    first = scenario_summary(run_scenario(fuzz).built)
    second = scenario_summary(run_scenario(fuzz).built)
    assert first == second
    json.dumps(first)  # plain data only — serializable as-is


# ================================================================ shrinker
def _pure_predicate(fuzz: FuzzScenario) -> bool:
    """Fails while the scenario still has >= 2 flows (no simulation)."""
    return len(fuzz.flows) >= 2


def test_shrinker_minimizes_against_pure_predicate():
    fuzz = ScenarioGen(seed=8).sample(0)
    fuzz.flows = [FlowSpec(cc=NATIVE, rtt=0.123456, start_time=1.0)
                  for _ in range(3)]
    fuzz.links.append(LinkSpec(kind="constant", params={"rate_bps": 50e6},
                               buffer_packets=500, role="wired"))
    minimized = shrink_scenario(fuzz, _pure_predicate)
    minimized.validate()
    assert len(minimized.flows) == 2          # smallest count still failing
    assert len(minimized.links) == 1          # backhaul hop dropped
    assert minimized.duration == 1.0          # halved to the floor
    assert all(link.loss_rate == 0.0 for link in minimized.links)
    assert all(flow.start_time == 0.0 for flow in minimized.flows)
    assert all(round(flow.rtt, 2) == flow.rtt for flow in minimized.flows)


def test_shrinker_requires_failing_input_and_respects_budget():
    fuzz = _tiny_scenario(n_flows=1)
    with pytest.raises(ValueError, match="failing scenario"):
        shrink_scenario(fuzz, _pure_predicate)

    calls = []

    def counting(candidate: FuzzScenario) -> bool:
        calls.append(1)
        return len(candidate.flows) >= 2

    shrink_scenario(_tiny_scenario(n_flows=3), counting, max_attempts=4)
    assert len(calls) <= 4


def test_corpus_entry_round_trip(tmp_path):
    fuzz = _tiny_scenario()
    failing = corpus_entry(fuzz, ["packet-conservation", "non-negative"],
                           description="synthetic")
    path = tmp_path / "entry.json"
    save_corpus_entry(failing, path)
    loaded = load_corpus_entry(path)
    assert loaded == failing
    assert loaded["expect"]["violations"] == ["non-negative",
                                              "packet-conservation"]

    clean = corpus_entry(fuzz, [], summary={"links": {}, "flows": {}})
    assert clean["expect"]["clean"] is True

    bad = dict(loaded, format=99)
    (tmp_path / "bad.json").write_text(json.dumps(bad))
    with pytest.raises(ValueError, match="unsupported corpus format"):
        load_corpus_entry(tmp_path / "bad.json")


# ================================================================ campaign
def test_fuzz_cell_verdict_shape_and_determinism_check():
    fuzz = _tiny_scenario()
    verdict = fuzz_cell(fuzz.to_jsonable(), check_determinism=True)
    assert verdict["scenario_id"] == fuzz.scenario_id
    assert verdict["signature"] == fuzz.signature()
    assert verdict["violations"] == []
    assert verdict["summary"]["flows"]["0"]["packets_sent"] > 0
    json.dumps(verdict)  # picklable AND json-able


def test_small_campaign_is_reproducible_and_clean():
    first = run_campaign(budget=6, seed=6, check_determinism=False)
    second = run_campaign(budget=6, seed=6, check_determinism=False)
    assert first == second
    assert first["clean"] and first["scenarios_run"] == 6
    assert first["violating_scenarios"] == 0
    assert "determinism" in first["invariants"]


def test_campaign_routes_through_executor_cache(tmp_path):
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
    report = run_campaign(budget=3, seed=1, executor=executor,
                          check_determinism=False)
    assert executor.last_stats.executed == 3
    replay = run_campaign(budget=3, seed=1, executor=executor,
                          check_determinism=False)
    assert executor.last_stats.cache_hits == 3
    assert executor.last_stats.executed == 0
    assert replay == report
