"""Tests for the fluid model and Theorem 3.1."""

import numpy as np
import pytest

from repro.core.params import ABCParams
from repro.core.stability import (FluidModel, is_theoretically_stable,
                                  stability_threshold)


def test_stability_threshold_formula():
    assert stability_threshold(0.1) == pytest.approx(2.0 / 30.0)
    assert stability_threshold(0.0) == 0.0
    with pytest.raises(ValueError):
        stability_threshold(-1.0)


def test_paper_default_parameters_are_stable():
    """δ = 133 ms with τ = 100 ms satisfies δ > 2τ/3 (§3.1.4)."""
    assert is_theoretically_stable(0.133, 0.1)
    assert not is_theoretically_stable(0.05, 0.1)


def test_fluid_model_validation():
    with pytest.raises(ValueError):
        FluidModel(tau=0.0)
    with pytest.raises(ValueError):
        FluidModel(capacity_bps=0.0)
    model = FluidModel(tau=0.1)
    with pytest.raises(ValueError):
        model.simulate(step=0.2)  # step must be < tau
    with pytest.raises(ValueError):
        model.simulate(duration=0.0)


def test_drift_sign_depends_on_flow_count():
    # With no flows the additive-increase term vanishes and A = eta - 1 < 0.
    assert FluidModel(num_flows=0).drift < 0
    # With many flows on a slow link, A > 0.
    assert FluidModel(num_flows=50, capacity_bps=5e6).drift > 0


def test_fixed_point_zero_when_drift_negative():
    model = FluidModel(num_flows=0)
    assert model.fixed_point() == 0.0
    assert model.equilibrium_rate_fraction() <= 1.0


def test_fixed_point_formula_when_drift_positive():
    params = ABCParams(delta=0.133, delay_threshold=0.02)
    model = FluidModel(params=params, num_flows=20, capacity_bps=5e6, tau=0.1)
    a = model.drift
    assert model.fixed_point() == pytest.approx(a * 0.133 + 0.02)
    assert model.equilibrium_rate_fraction() == 1.0


def test_fluid_model_converges_when_stable():
    params = ABCParams(delta=0.133)
    model = FluidModel(params=params, tau=0.1, num_flows=10, capacity_bps=10e6)
    result = model.simulate(duration=30.0, initial_delay=0.4)
    assert result.converged
    assert result.final_error < 5e-3


def test_fluid_model_queue_stays_near_fixed_point():
    model = FluidModel(params=ABCParams(delta=0.2), tau=0.1, num_flows=10,
                       capacity_bps=10e6)
    result = model.simulate(duration=40.0, initial_delay=0.0)
    tail = result.queuing_delay[-1000:]
    assert np.allclose(tail, result.fixed_point, atol=5e-3)


def test_fluid_model_oscillates_when_delta_far_below_bound():
    """Well below δ = 2τ/3 the loop over-corrects and keeps oscillating."""
    stable = FluidModel(params=ABCParams(delta=0.133), tau=0.1, num_flows=10,
                        capacity_bps=10e6)
    unstable = FluidModel(params=ABCParams(delta=0.02), tau=0.1, num_flows=10,
                          capacity_bps=10e6)
    r_stable = stable.simulate(duration=40.0, initial_delay=0.4)
    r_unstable = unstable.simulate(duration=40.0, initial_delay=0.4)
    assert r_unstable.oscillation_amplitude > 5 * r_stable.oscillation_amplitude
    assert not r_unstable.converged


def test_queue_never_negative():
    model = FluidModel(num_flows=0, tau=0.1)
    result = model.simulate(duration=10.0, initial_delay=0.5)
    assert np.all(result.queuing_delay >= 0.0)


def test_empirical_stability_helper():
    assert FluidModel(params=ABCParams(delta=0.133), tau=0.1,
                      num_flows=10).empirical_stability(duration=30.0)


def test_stability_sweep_experiment():
    from repro.experiments.stability_eval import fluid_stability_sweep
    sweep = fluid_stability_sweep(delta_over_tau=(0.2, 1.33), tau=0.1)
    assert not sweep[0.2].theoretically_stable
    assert sweep[1.33].theoretically_stable
    assert sweep[1.33].fluid_converged
    assert sweep[0.2].fluid_oscillation_s > sweep[1.33].fluid_oscillation_s


def test_packet_level_stability_runs_abc_on_a_constant_link():
    from repro.experiments.runner import single_bottleneck_spec
    from repro.experiments.scenario_spec import LinkSpec, spec_cell
    from repro.experiments.stability_eval import packet_level_stability
    (point,) = packet_level_stability(delta_values=(0.133,),
                                      duration=1.0).values()
    direct = spec_cell(single_bottleneck_spec(
        "abc", LinkSpec("constant", {"rate_bps": 24e6}), rtt=0.1,
        duration=1.0, abc_params=ABCParams(delta=0.133)).to_jsonable(),
        "single_bottleneck")
    assert point.delta == 0.133
    assert point.utilization == direct.utilization
    assert point.queuing_p95_ms == direct.queuing_p95_ms
    assert 0.0 < point.utilization <= 1.0 and point.queuing_std_ms >= 0.0



# ------------------------------------------------------------ packet vs fluid
#: Measured over the cases below (last 10 s of 20 s runs): utilisation
#: 0.000-0.017 below ``equilibrium_rate_fraction`` and never above it, so the
#: band is 0.025 below (0.008 margin) to 0.002 above.
UTIL_BELOW, UTIL_ABOVE = 0.025, 0.002
#: Where A > 0 the median queuing delay was 1.2-9.6 ms below x* and never
#: above it: the band is x* - 12 ms (2.4 ms margin) to x* + 2 ms.  Where
#: A <= 0 it was <= 1 ms (one MTU's service time at 12 Mbit/s): <= 2 ms.
DELAY_BELOW_S, DELAY_ABOVE_S, IDLE_DELAY_S = 0.012, 0.002, 0.002

#: A = +0.02, the smallest positive drift of the grid.  The packet run
#: alternates between a standing queue near x* (21 ms) and an almost empty
#: one (1-3 ms) about every 8 s, which the fluid model does not predict:
#: the last-10 s median is 3 ms against x* = 22.7 ms.
_LIMIT_CYCLE = pytest.mark.xfail(
    strict=True, reason="slow queue limit cycle at small positive drift: "
                        "median queuing delay 3 ms against x* = 22.7 ms")


@pytest.mark.parametrize("rate_bps,rtt,flows", [
    pytest.param(rate, rtt, flows, id=f"{rate / 1e6:g}M-{rtt * 1e3:g}ms-{flows}",
                 marks=_LIMIT_CYCLE if (rate, rtt, flows) == (12e6, 0.05, 2)
                 else ())
    for rate in (12e6, 24e6) for rtt in (0.05, 0.1) for flows in (1, 2, 8)])
def test_packet_simulator_lands_on_the_fluid_fixed_point(rate_bps, rtt, flows):
    """ABC on a constant link settles where Appendix A's fluid model says:
    utilisation at ``equilibrium_rate_fraction``, and the median queuing
    delay at ``fixed_point`` (an empty queue when the drift A <= 0)."""
    from repro.experiments.scenario_spec import (FlowSpec, ScenarioSpec,
                                                 build, link_spec_from)

    built = build(ScenarioSpec(
        scheme="abc", duration=20.0,
        links=[link_spec_from(rate_bps, name="bottleneck")],
        flows=[FlowSpec(rtt=rtt) for _ in range(flows)]))
    result = built.scenario.run(20.0)
    utilisation = result.link_utilization(built.scenario.links[0], t0=10.0)
    delays = [delay for flow in built.flows
              for t, delay in zip(flow.stats.recv_times,
                                  flow.stats.queuing_delays) if t >= 10.0]
    median_delay = float(np.median(delays))

    model = FluidModel(tau=rtt, num_flows=flows, capacity_bps=rate_bps)
    eta_star = model.equilibrium_rate_fraction()
    assert eta_star - UTIL_BELOW <= utilisation <= eta_star + UTIL_ABOVE
    if model.drift <= 0:
        assert median_delay <= IDLE_DELAY_S
    else:
        x_star = model.fixed_point()
        assert x_star - DELAY_BELOW_S <= median_delay <= x_star + DELAY_ABOVE_S
