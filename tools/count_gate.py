"""Deterministic per-packet gate: Python calls and bytecodes per delivered
MTU must not rise.

Counts the Python calls made inside ``Scenario.run`` per delivered MTU, in
total and per ``repro`` function, and the bytecodes executed per delivered
MTU in total, on the 4-cell 2 s ``metro_ack`` and ``metro_paced`` cities and
on the ``paper_figs`` set (0.5 s cells: one single-bottleneck cell per scheme
of the paper's tables on the synthetic LTE showcase trace, so every ``cc``,
``aqm`` and ``explicit`` module is on the path, plus Fig. 10's ABC Wi-Fi cell
and Fig. 7's dual-queue cell; ``tools/profile_hotpath.py --counts``), and
compares them with the committed
``tools/hotpath_counts.json``.  It fails when either total or any function's
call count rises by more than ``TOLERANCE``; a function the file does not
list rises from zero.  Next to each rise it prints the Python calls the
function makes per call of it, and then the functions whose calls per call
rose: a rise per MTU that no such function explains is a traffic mix that
moved (more packets down one scheme's path), not a costlier function.  The
functions are those of the ``repro`` package this
interpreter imports, so ``PYTHONPATH`` may point at a copy of ``src/``
(``tools/mutants.py`` does).  The counts are exact and
machine-independent, so one run settles it, but they move between CPython
minor versions: the file records the version it was written on, and the gate
refuses to compare on another::

    PYTHONPATH=src python tools/count_gate.py            # exit 1 on a rise
    PYTHONPATH=src python tools/count_gate.py --write    # re-baseline

Re-baseline only in a change that means to move the per-packet path, and
say why in its CHANGES.md entry.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import sys
from functools import partial
from pathlib import Path

import repro
from profile_hotpath import (METRO_CELLS, HotpathCounts, metro_workload,
                             scenario_workload)
from repro.experiments.runner import SCHEME_NAMES

#: The ledger's two metro mixes (``benchmarks/ledger/workloads.py``).
MIXES = {"metro_ack": "abc:0.6,cubic:0.3,bbr:0.1",
         "metro_paced": "bbr:0.6,pcc:0.2,abc:0.2"}
#: Simulated seconds per metro cell.
DURATION = 2.0
#: Simulated seconds per ``paper_figs`` cell.
FIGS_DURATION = 0.5
#: The fraction a count may rise by before the gate fails.
TOLERANCE = 0.03
BASELINE = Path(__file__).with_name("hotpath_counts.json")
SRC = Path(repro.__file__).resolve().parent.parent


def python_version() -> str:
    return "{}.{}".format(*sys.version_info[:2])


def figs_workload():
    """Set up the ``paper_figs`` set: one cell per ``SCHEME_NAMES`` scheme,
    Fig. 10's ABC Wi-Fi cell and Fig. 7's dual-queue cell (its two ABC and
    two Cubic flows all start at 0); returns the run."""
    from repro.experiments.coexistence import (SHARED_LINK_MBPS,
                                               shared_bottleneck_spec)
    from repro.experiments.scenario_spec import spec_cell
    from repro.experiments.wifi_eval import wifi_case_spec

    cells = [scenario_workload(scheme, FIGS_DURATION)
             for scheme in SCHEME_NAMES]
    wifi = wifi_case_spec("abc", 2, FIGS_DURATION, 0.04, "alternating", 1,
                          0.06)
    dual = shared_bottleneck_spec(SHARED_LINK_MBPS, FIGS_DURATION, 0.1,
                                  n_abc=2, n_cubic=2)
    cells += [partial(spec_cell, wifi.to_jsonable(), "wifi"),
              partial(spec_cell, dual.to_jsonable(), "coexistence",
                      warmup=0.0)]
    return lambda: [cell() for cell in cells]


#: Counted set -> its set-up, called right before the set is counted.
SETS = {**{name: partial(metro_workload, mix, DURATION)
           for name, mix in MIXES.items()},
        "paper_figs": figs_workload}


def python_calls(setup) -> dict:
    """Per delivered MTU on the workload ``setup()`` returns: Python calls
    in total and per ``repro`` function (``<file under src>:<qualified
    name>``), and bytecodes in total; and per call of each function, the
    Python calls it makes."""
    counts = HotpathCounts()
    counts.run(setup())
    per_function = collections.Counter()
    called, made = collections.Counter(), collections.Counter()
    for code, (_bytecodes, calls, _c_calls, callees) in counts.by_code.items():
        path = Path(code.co_filename)
        if path.is_relative_to(SRC / "repro") and calls:
            name = getattr(code, "co_qualname", code.co_name)
            name = f"{path.relative_to(SRC).as_posix()}:{name}"
            per_function[name] += calls / counts.delivered_mtus
            called[name] += calls
            made[name] += callees
    totals = counts.totals()
    return {"total": round(totals["py_calls_per_op"], 6),
            "bytecodes": round(totals["bytecodes_per_op"], 3),
            "functions": {name: round(value, 6)
                          for name, value in sorted(per_function.items())},
            "per_call": {name: round(made[name] / called[name], 6)
                         for name in sorted(called)}}


def regressions(expected: dict, measured: dict,
                tolerance: float = TOLERANCE) -> list:
    """One line per count in ``measured`` that exceeds ``expected`` by more
    than ``tolerance``: the call total, the bytecode total, then the
    functions' calls, each with the Python calls it makes per call of it."""
    rows = {"total": (expected["total"], measured["total"], "Python calls"),
            "bytecodes": (expected["bytecodes"], measured["bytecodes"],
                          "bytecodes")}
    rows.update({name: (expected["functions"].get(name, 0.0), value,
                        "Python calls")
                 for name, value in measured["functions"].items()})
    before, after = expected.get("per_call", {}), measured.get("per_call", {})
    return [f"{name}: {old:.6f} -> {new:.6f} {unit} per MTU"
            + (f", {before.get(name, 0.0):.3f} -> {after[name]:.3f} "
               "calls made per call" if name in after else "")
            for name, (old, new, unit) in rows.items()
            if new > old * (1 + tolerance)]


def costlier(expected: dict, measured: dict,
             tolerance: float = TOLERANCE) -> list:
    """The functions that make more Python calls per call of them than
    ``expected`` by more than ``tolerance`` (one that is new makes them
    from zero).  A rise per MTU with none of these is a traffic mix that
    moved: the same functions run more often, each as costly as before."""
    before = expected.get("per_call", {})
    return sorted(name for name, value in measured.get("per_call", {}).items()
                  if value > before.get(name, 0.0) * (1 + tolerance))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"rewrite {BASELINE.name} from this checkout")
    args = parser.parse_args(argv)
    for knob in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[knob]            # the counts are of the defaults
    measured = {name: python_calls(setup) for name, setup in SETS.items()}
    if args.write:
        BASELINE.write_text(json.dumps(
            {"python": python_version(), "cells": METRO_CELLS,
             "duration": DURATION, "mixes": MIXES,
             "figs": {"schemes": list(SCHEME_NAMES),
                      "cells": ["fig10 abc wifi", "fig7 abc-dual"],
                      "duration": FIGS_DURATION},
             "counts": measured},
            indent=1) + "\n")
        print(f"wrote {BASELINE}")
        return 0
    baseline = json.loads(BASELINE.read_text())
    if baseline["python"] != python_version():
        print(f"error: {BASELINE.name} was written on CPython "
              f"{baseline['python']}; this is {python_version()}")
        return 2
    failed = False
    for name, counts in measured.items():
        expected = baseline["counts"].get(name)
        if expected is None:
            print(f"{name}: not in {BASELINE.name}; re-baseline with --write")
            failed = True
            continue
        moved = sum(value != expected["functions"].get(function)
                    for function, value in counts["functions"].items())
        print(f"{name}: {expected['total']:.6f} -> {counts['total']:.6f} "
              f"Python calls and {expected['bytecodes']:.1f} -> "
              f"{counts['bytecodes']:.1f} bytecodes per MTU; {moved} of "
              f"{len(counts['functions'])} repro functions moved")
        rose = regressions(expected, counts)
        for line in rose:
            print(f"  ROSE > {TOLERANCE:.0%}  {line}")
            failed = True
        if rose:
            dearer = costlier(expected, counts)
            print("  costlier per call: " + ", ".join(dearer) if dearer else
                  "  no function makes more calls per call: the traffic mix "
                  "moved")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
