"""Campaign driver: fan fuzz scenarios out through the sweep runtime.

:func:`fuzz_cell` is the module-level job function — one scenario in, one
serializable verdict out — so campaigns parallelise through the existing
:class:`~repro.runtime.executor.SweepExecutor` (``--jobs``/``REPRO_JOBS``)
and memoise through :class:`~repro.runtime.cache.ResultCache`
(``REPRO_CACHE_DIR``) exactly like the paper-figure sweeps do.

:func:`run_campaign` samples ``budget`` scenarios from a seeded
:class:`~repro.fuzz.generator.ScenarioGen`, runs them, dedupes failures by
(invariant, scenario signature), optionally shrinks one representative per
failure group, and returns a *deterministic* report: same seed and budget →
byte-identical JSON, regardless of worker count, cache state or wall-clock.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.fuzz.generator import FuzzScenario, ScenarioGen
from repro.fuzz.invariants import (INVARIANT_NAMES, Violation, run_invariants,
                                   run_scenario, scenario_summary)
from repro.fuzz.shrink import corpus_entry, save_corpus_entry, shrink_scenario
from repro.obs.manifest import (build_manifest, provenance, run_dir,
                                write_manifest)
from repro.runtime.executor import SweepExecutor, SweepJob, get_executor
from repro.runtime.faults import is_failure

#: Report schema version (bump on incompatible report changes).
#: v2: reports embed the deterministic provenance record (git SHA, code
#: version salt, REPRO_* knob snapshot) under ``manifest``.
#: v3: fault-tolerant campaigns — scenarios whose sweep job exhausted its
#: retry budget under the salvage policy are reported under ``failed_jobs``
#: (with their deterministic JobFailure records) instead of aborting the
#: campaign.
REPORT_FORMAT = 3


def evaluate_scenario(fuzz: FuzzScenario,
                      check_determinism: bool = True) -> Dict[str, Any]:
    """Run one scenario through the full invariant suite.

    Returns a picklable verdict dict.  When ``check_determinism`` is set the
    simulation runs twice from scratch and the two run summaries must be
    equal — the bit-for-bit property every sweep and cache hit relies on.
    """
    ctx = run_scenario(fuzz)
    summary = scenario_summary(ctx.built)
    violations = run_invariants(ctx)
    if check_determinism:
        replay = scenario_summary(run_scenario(fuzz).built)
        if replay != summary:
            violations.append(Violation(
                "determinism",
                "two identical runs produced different summaries"))
    return {
        "scenario_id": fuzz.scenario_id,
        "signature": fuzz.signature(),
        "violations": [[v.invariant, v.message] for v in violations],
        "summary": summary,
    }


def fuzz_cell(spec: dict, check_determinism: bool = True) -> Dict[str, Any]:
    """Module-level sweep job: evaluate one serialized scenario.

    Must stay module-level and take only picklable kwargs — parallel workers
    receive it by reference and the result cache keys on its qualified name
    plus the canonical encoding of ``spec``.
    """
    return evaluate_scenario(FuzzScenario.from_jsonable(spec),
                             check_determinism=check_determinism)


# ---------------------------------------------------------------------------
# Campaign orchestration
# ---------------------------------------------------------------------------
def _still_fails(invariant: str, check_determinism: bool):
    """Predicate factory for the shrinker: does ``invariant`` still trip?"""
    def fails(candidate: FuzzScenario) -> bool:
        verdict = evaluate_scenario(candidate,
                                    check_determinism=check_determinism)
        return any(name == invariant for name, _ in verdict["violations"])
    return fails


def run_campaign(budget: int, seed: int = 0,
                 jobs: Optional[int | str] = None,
                 executor: Optional[SweepExecutor] = None,
                 check_determinism: bool = True,
                 shrink: bool = True,
                 shrink_attempts: int = 60,
                 corpus_dir: Optional[Path] = None,
                 journal: Any = None,
                 failures: Optional[str] = None) -> Dict[str, Any]:
    """Run a fuzzing campaign and return the (deterministic) report dict.

    Failures are grouped by ``(invariant, scenario signature)``; each group
    keeps its first (lowest scenario id) example, which is optionally
    shrunk in-process and — when ``corpus_dir`` is given — written out as a
    corpus entry ready to commit under ``tests/data/fuzz_corpus/``.

    ``journal`` enables checkpoint/resume (``tools/fuzz_scenarios.py
    --resume``): completed scenarios are journaled as they land, and a
    re-run of the identical campaign evaluates only the missing ones (see
    :mod:`repro.runtime.journal`).  ``failures`` selects the executor's
    strict-vs-salvage policy; under ``"salvage"`` a scenario whose sweep
    job exhausted its retries is reported under ``failed_jobs`` (with its
    deterministic :class:`~repro.runtime.faults.JobFailure` record) instead
    of aborting the campaign.  Both default to the executor's own
    configuration / environment knobs.
    """
    generator = ScenarioGen(seed)
    scenarios = generator.sample_many(budget)
    sweep_jobs = [SweepJob(func=fuzz_cell,
                           kwargs={"spec": fuzz.to_jsonable(),
                                   "check_determinism": check_determinism},
                           label=f"fuzz-{seed}-{fuzz.scenario_id}")
                  for fuzz in scenarios]
    runner = get_executor(executor, jobs=jobs, journal=journal)
    verdicts = runner.run(sweep_jobs, failure_policy=failures)

    # Group violations by failure mode; keep the first example of each.
    # Salvaged JobFailure sentinels (fault-tolerant campaigns) are split out
    # into the deterministic ``failed_jobs`` section first.
    failed_jobs = [
        {"scenario_id": fuzz.scenario_id, "failure": verdict.to_jsonable()}
        for fuzz, verdict in zip(scenarios, verdicts) if is_failure(verdict)]
    groups: Dict[tuple, Dict[str, Any]] = {}
    violating_scenarios = 0
    for fuzz, verdict in zip(scenarios, verdicts):
        if is_failure(verdict) or not verdict["violations"]:
            continue
        violating_scenarios += 1
        for invariant, message in verdict["violations"]:
            key = (invariant, verdict["signature"])
            group = groups.setdefault(key, {
                "invariant": invariant,
                "signature": verdict["signature"],
                "count": 0,
                "first_scenario_id": fuzz.scenario_id,
                "example_message": message,
                "example_scenario": fuzz.to_jsonable(),
            })
            group["count"] += 1

    failure_groups = [groups[key] for key in sorted(groups)]
    for group in failure_groups:
        example = FuzzScenario.from_jsonable(group["example_scenario"])
        if shrink:
            minimized = shrink_scenario(
                example, _still_fails(group["invariant"], check_determinism),
                max_attempts=shrink_attempts)
            group["minimized_scenario"] = minimized.to_jsonable()
        if corpus_dir is not None:
            target = FuzzScenario.from_jsonable(
                group.get("minimized_scenario", group["example_scenario"]))
            verdict = evaluate_scenario(target,
                                        check_determinism=check_determinism)
            entry = corpus_entry(
                target,
                violations=[name for name, _ in verdict["violations"]],
                description=(f"fuzz seed={seed} budget={budget}: "
                             f"{group['invariant']} on {group['signature']}"))
            save_corpus_entry(
                entry, Path(corpus_dir) /
                f"{group['invariant']}-{target.scenario_id}.json")

    report = {
        "format": REPORT_FORMAT,
        "budget": budget,
        "seed": seed,
        "invariants": list(INVARIANT_NAMES),
        "scenarios_run": len(scenarios),
        "violating_scenarios": violating_scenarios,
        "failure_groups": failure_groups,
        "failed_jobs": failed_jobs,
        "clean": not failure_groups and not failed_jobs,
        # Deterministic provenance only (no timestamps/timings): the report
        # itself must stay byte-identical for a given (seed, budget).
        "manifest": provenance(),
    }
    # Side-band full manifest (timings, metrics) when REPRO_RUN_DIR is set.
    if run_dir() is not None:
        write_manifest(build_manifest(
            "fuzz", executor=runner,
            extra={"report": {k: report[k] for k in
                              ("format", "budget", "seed", "scenarios_run",
                               "violating_scenarios", "clean")}}))
    return report
