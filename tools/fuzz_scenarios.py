#!/usr/bin/env python3
"""Run a scenario-fuzzing campaign from the command line.

Samples ``--budget`` random scenarios from the seeded generator, runs each
through the simulator and the invariant suite (fanned out over ``--jobs``
workers via the sweep runtime), dedupes failures, shrinks one representative
per failure group and writes a deterministic JSON report.

Examples::

    # CI smoke: quick, parallel, must come back clean.
    python tools/fuzz_scenarios.py --budget 25 --jobs 2 --seed 6

    # Overnight search with a report and auto-minimized corpus candidates.
    python tools/fuzz_scenarios.py --budget 10000 --jobs 8 --seed 1 \\
        --out report.json --corpus-dir tests/data/fuzz_corpus

Exit status: 0 when every scenario satisfied every invariant, 1 otherwise.
The report is byte-identical across reruns with the same seed and budget
(worker count, cache state and wall-clock never leak into it).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.fuzz.campaign import run_campaign  # noqa: E402
from repro.runtime.executor import SweepExecutor  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Fuzz random scenarios against the simulator invariants.")
    parser.add_argument("--budget", type=int, default=100,
                        help="number of scenarios to sample (default: 100)")
    parser.add_argument("--jobs", default=None,
                        help="worker count (int or 'auto'; default: REPRO_JOBS"
                             " or serial)")
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (default: 0)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the JSON report here")
    parser.add_argument("--no-shrink", action="store_true",
                        help="skip minimizing failing scenarios")
    parser.add_argument("--no-determinism", action="store_true",
                        help="skip the determinism replay (halves runtime)")
    parser.add_argument("--corpus-dir", type=Path, default=None,
                        help="write minimized counterexamples here as corpus"
                             " entries")
    parser.add_argument("--resume", nargs="?", const=True, default=None,
                        metavar="DIR",
                        help="journal completed scenarios and resume an "
                             "interrupted campaign; optional journal "
                             "directory (default: REPRO_JOURNAL or "
                             "REPRO_RUN_DIR/journal)")
    parser.add_argument("--failures", choices=("strict", "salvage"),
                        default=None,
                        help="policy for scenarios whose sweep job exhausts "
                             "its retries (default: REPRO_FAILURE_POLICY or "
                             "strict)")
    args = parser.parse_args(argv)

    executor = SweepExecutor(jobs=args.jobs, journal=args.resume,
                             failure_policy=args.failures)
    report = run_campaign(
        budget=args.budget, seed=args.seed, executor=executor,
        check_determinism=not args.no_determinism,
        shrink=not args.no_shrink, corpus_dir=args.corpus_dir)

    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    print(f"fuzz campaign: seed={report['seed']} budget={report['budget']} "
          f"-> {report['violating_scenarios']} violating scenario(s) in "
          f"{len(report['failure_groups'])} failure group(s)")
    for group in report["failure_groups"]:
        print(f"  [{group['invariant']}] {group['signature']} "
              f"x{group['count']} (first: scenario "
              f"{group['first_scenario_id']})")
        print(f"      {group['example_message']}")
    for failed in report.get("failed_jobs", ()):
        attempts = failed["failure"]["attempts"]
        print(f"  [job-failure] scenario {failed['scenario_id']}: "
              f"{attempts[-1]['outcome']} after {len(attempts)} attempt(s)")
    if report["clean"]:
        print("all invariants held")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
