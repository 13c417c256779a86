"""Seeded random sampling of valid simulation scenarios.

:class:`ScenarioGen` samples
:class:`~repro.experiments.scenario_spec.ScenarioSpec` descriptions — the
one scenario description every experiment builds through
:func:`~repro.experiments.scenario_spec.build`.  Keeping the description
separate from the build is what makes the rest of the fuzzing stack work:
descriptions travel through pickled sweep-job kwargs, shrink transformations
edit them structurally, and corpus entries replay them years later from
JSON.

The sampled space covers the knobs the paper's experiments vary (and a few
they do not): bottleneck model (constant rate, square wave, synthetic
cellular trace), bottleneck buffer size, AQM/scheme at the bottleneck, an
optional wired backhaul hop, random packet loss, flow count, per-flow RTTs
and staggered arrivals, and cross-traffic (a loss-based flow sharing the
bottleneck with the scheme's native flows).

Every sample is *valid by construction*: scheme labels come from the
experiment registry, explicit-feedback schemes are never paired with foreign
cross-traffic, rates/buffers/durations stay inside ranges the simulator
defines behavior for.  The fuzzer searches for invariant violations, not for
input-validation crashes.
"""

from __future__ import annotations

import random
from typing import List

from repro.experiments.scenario_spec import (CROSS_TRAFFIC_SCHEMES, NATIVE,
                                             FlowSpec, LinkSpec, ScenarioSpec)

#: Schemes the fuzzer samples.  Excludes the rate-based schemes whose pacing
#: timers dominate runtime (sprout, verus, pcc) and pk-abc (needs a
#: trace-driven link's future-capacity oracle on every path).
SCHEME_POOL = (
    "abc", "abc-enqueue", "cubic", "cubic+codel", "cubic+pie", "newreno",
    "vegas", "copa", "bbr", "xcp", "rcp", "vcp",
)

#: Congestion controllers used as cross-traffic.
CROSS_CCS = ("cubic", "newreno")


# ---------------------------------------------------------------------------
# Random sampling
# ---------------------------------------------------------------------------
class ScenarioGen:
    """Seeded sampler over the scenario space.

    The i-th scenario of a campaign is a pure function of ``(seed, i)`` —
    each sample draws from its own ``random.Random`` — so campaigns are
    reproducible regardless of sampling order or worker count.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    # ------------------------------------------------------------ pieces
    def _sample_bottleneck(self, rng: random.Random) -> LinkSpec:
        kind = rng.choices(("constant", "square", "cellular"),
                           weights=(0.35, 0.25, 0.40))[0]
        if kind == "constant":
            params = {"rate_bps": rng.uniform(1e6, 20e6)}
        elif kind == "square":
            low = rng.uniform(1e6, 8e6)
            params = {"low_bps": low,
                      "high_bps": low * rng.uniform(1.5, 4.0),
                      "half_period": rng.uniform(0.2, 1.0)}
        else:
            mean = rng.uniform(2e6, 10e6)
            params = {"mean_rate_bps": mean,
                      "min_rate_bps": mean * rng.uniform(0.05, 0.3),
                      "max_rate_bps": mean * rng.uniform(1.5, 4.0),
                      "volatility": rng.uniform(0.15, 0.4),
                      "outage_rate_per_s": rng.choice((0.0, 0.1, 0.3)),
                      "outage_duration_s": rng.uniform(0.1, 0.4),
                      "trace_seed": rng.randrange(2**16)}
        loss_rate = 0.0 if rng.random() < 0.6 else rng.uniform(0.001, 0.05)
        return LinkSpec(kind=kind, params=params,
                        buffer_packets=rng.choice((10, 25, 50, 100, 250, 400)),
                        loss_rate=loss_rate,
                        loss_seed=rng.randrange(2**16),
                        role="bottleneck")

    def _sample_wired(self, rng: random.Random) -> LinkSpec:
        # A fast backhaul hop: rarely the bottleneck, but it exercises
        # multi-hop queuing-delay accounting and per-link conservation.
        return LinkSpec(kind="constant",
                        params={"rate_bps": rng.uniform(40e6, 100e6)},
                        buffer_packets=500, loss_rate=0.0,
                        loss_seed=0, role="wired")

    # ------------------------------------------------------------ sampling
    def sample(self, index: int) -> ScenarioSpec:
        """The ``index``-th scenario of this generator's stream."""
        # String seeding hashes via sha512 — stable across processes and
        # Python versions, unlike hash()-based tuple seeding.
        rng = random.Random(f"{self.seed}:{index}")
        scheme = rng.choice(SCHEME_POOL)
        duration = rng.uniform(2.0, 6.0)
        links = [self._sample_bottleneck(rng)]
        if rng.random() < 0.25:
            links.append(self._sample_wired(rng))
        n_flows = rng.choice((1, 1, 2, 2, 3))
        flows = []
        for i in range(n_flows):
            cc = NATIVE
            if (i > 0 and scheme in CROSS_TRAFFIC_SCHEMES
                    and rng.random() < 0.25):
                cc = rng.choice(CROSS_CCS)
            flows.append(FlowSpec(
                cc=cc, rtt=rng.uniform(0.02, 0.2),
                start_time=0.0 if rng.random() < 0.5
                else rng.uniform(0.0, duration / 2.0)))
        scenario = ScenarioSpec(scenario_id=index, scheme=scheme,
                                duration=duration, links=links, flows=flows,
                                sim_seed=rng.randrange(2**16))
        scenario.validate()
        return scenario

    def sample_many(self, budget: int) -> List[ScenarioSpec]:
        if budget <= 0:
            raise ValueError("budget must be positive")
        return [self.sample(i) for i in range(budget)]
