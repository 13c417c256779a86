"""Scenario fuzzing: randomized generation, invariant checking, shrinking.

The paper validates ABC on hand-picked figures; this package turns the fast
engine and the parallel sweep runtime into a *search* over scenario space.
Four layers (see ``docs/ARCHITECTURE.md`` § Fuzzing):

* :mod:`repro.fuzz.generator` — seeded :class:`~repro.fuzz.generator.ScenarioGen`
  samples random-but-valid scenarios and builds runnable simulations.
* :mod:`repro.fuzz.invariants` — composable checkers run against every
  finished simulation's counters, departure records and mid-run samples.
* :mod:`repro.fuzz.shrink` — greedy delta-debugging minimizer for failing
  scenarios, plus corpus (de)serialization.
* :mod:`repro.fuzz.campaign` — campaign driver fanning scenarios out through
  :class:`repro.runtime.SweepExecutor`, deduping failures and emitting a
  deterministic JSON report (CLI: ``tools/fuzz_scenarios.py``).
"""

from repro.fuzz.generator import (FlowSpec, FuzzScenario, LinkSpec,
                                  ScenarioGen, build_scenario)
from repro.fuzz.invariants import (CheckContext, Violation, run_invariants,
                                   scenario_summary)
from repro.fuzz.shrink import shrink_scenario
from repro.fuzz.campaign import fuzz_cell, run_campaign

__all__ = [
    "FlowSpec", "FuzzScenario", "LinkSpec", "ScenarioGen", "build_scenario",
    "CheckContext", "Violation", "run_invariants", "scenario_summary",
    "shrink_scenario", "fuzz_cell", "run_campaign",
]
