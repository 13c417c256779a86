"""cProfile the per-packet hot path and dump the top-N functions.

Profiles one scheme over the showcase LTE trace, or one ``metro_pack`` city
(many flows of mixed schemes churning through shared ABC routers — the load
that makes router and demux costs visible, which a single-flow trace cannot),
and prints the top functions by ``tottime`` (or any other :mod:`pstats` sort
key).  The ledger (``benchmarks/ledger/``) says which layer the time goes to;
this says which function::

    PYTHONPATH=src python tools/profile_hotpath.py                    # fig1 ABC
    PYTHONPATH=src python tools/profile_hotpath.py --scheme cubic
    PYTHONPATH=src python tools/profile_hotpath.py --metro abc:0.5,cubic:0.3,bbr:0.2
    PYTHONPATH=src python tools/profile_hotpath.py --sort cumulative --top 40
    PYTHONPATH=src python tools/profile_hotpath.py --out profile.pstats
    PYTHONPATH=src python tools/profile_hotpath.py --out profile.json
    PYTHONPATH=src python tools/profile_hotpath.py --metro MIX --duration 2 --counts

``--counts`` replaces the clock with counters: executed bytecodes
(``frame.f_trace_opcodes``) and Python / C calls (``sys.setprofile``) per
delivered MTU, by function, traced around ``Scenario.run`` only.  The numbers
are deterministic and machine-independent (one run is enough; they do move
between CPython minor versions), which is what sizing a change to the
per-event substrate needs: a call or a store removed shows up exactly, with
no speed phase of the box in the way.  Tracing every opcode is ~50x slower
than running, so keep ``--duration`` short.  One more machine-independent
row comes from a second, untraced pass with the collector off: the cyclic
garbage objects a run leaves behind once its results are dropped (0 — a
finished scenario is unwired by ``Scenario.run`` and freed by refcounting).

A saved ``--out`` file can be explored interactively with
``python -m pstats profile.pstats`` or rendered by snakeviz/gprof2dot.  A
``.json`` suffix writes the top rows as JSON instead (schema below), so a
profile can land next to the run manifests: when ``--out`` has no directory
component and ``REPRO_RUN_DIR`` is set, the file is written into the run
directory.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.manifest import in_run_dir  # noqa: E402

#: Cells in a ``--metro`` city: two square-wave sectors and two trace-driven
#: cells, enough for every link model and a few dozen churning flows.
METRO_CELLS = 4


def scenario_workload(scheme: str, duration: float):
    """Set up one scheme over the LTE showcase trace; returns the run."""
    from repro.cellular.synthetic import lte_showcase_trace
    from repro.experiments.runner import run_single_bottleneck

    trace = lte_showcase_trace(duration=duration, seed=7)
    return lambda: run_single_bottleneck(
        scheme, trace, rtt=0.1, duration=duration, buffer_packets=250, seed=0)


def metro_workload(mix: str, duration: float):
    """Set up one small ``metro_pack`` city; returns the run."""
    from repro.metro.spec import metro_pack

    _cells, jobs = metro_pack(METRO_CELLS, mixes=(mix,),
                              duration=duration).expand()
    return lambda: [job.run() for job in jobs]


def profile(workload) -> cProfile.Profile:
    profiler = cProfile.Profile()
    profiler.enable()
    workload()
    profiler.disable()
    return profiler


class HotpathCounts:
    """Bytecodes and calls executed inside ``Scenario.run``, by function."""

    def __init__(self) -> None:
        #: code object -> [bytecodes, Python calls, C calls made from it]
        self.by_code: dict = {}
        self.delivered_mtus = 0.0
        self.runs = 0
        #: Unreachable objects only a collection could free, over all runs.
        self.garbage_objects = 0

    def _row(self, code) -> list:
        row = self.by_code.get(code)
        if row is None:
            row = self.by_code[code] = [0, 0, 0]
        return row

    def _trace(self, frame, event, arg):
        # Global trace function: called once per new frame.
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        row = self._row(frame.f_code)

        def local(frame, event, arg):
            if event == "opcode":
                row[0] += 1
            return local
        return local

    def _profile(self, frame, event, arg) -> None:
        if event == "call":
            self._row(frame.f_code)[1] += 1
        elif event == "c_call":
            self._row(frame.f_code)[2] += 1

    def run(self, workload) -> None:
        """Run ``workload()`` with every ``Scenario.run`` inside it counted."""
        from repro.simulator.packet import MTU
        from repro.simulator.scenario import Scenario

        run = Scenario.run
        counts = self

        def counted_run(self, duration):
            sys.settrace(counts._trace)
            sys.setprofile(counts._profile)
            try:
                return run(self, duration)
            finally:
                sys.setprofile(None)
                sys.settrace(None)
                counts.runs += 1
                counts.delivered_mtus += sum(
                    flow.stats.bytes_received for flow in self.flows) / MTU

        Scenario.run = counted_run
        try:
            workload()
        finally:
            Scenario.run = run
        # A second, untraced pass with the collector off (the first was its
        # warm-up: lazy imports and the tracer's closures leave garbage of
        # their own): whatever is unreachable once the results are dropped
        # was held by a reference cycle.
        gc.collect()
        gc.disable()
        try:
            workload()
            self.garbage_objects = gc.collect()
        finally:
            gc.enable()

    def rows(self, sort: str, top: int) -> list:
        """The top-N functions, per delivered MTU (``sort``: ``calls`` orders
        by Python calls, anything else by bytecodes)."""
        ops = self.delivered_mtus or 1.0
        column = 1 if sort == "calls" else 0
        ranked = sorted(self.by_code.items(),
                        key=lambda item: item[1][column], reverse=True)
        return [{"function": getattr(code, "co_qualname", code.co_name),
                 "file": code.co_filename, "line": code.co_firstlineno,
                 "bytecodes_per_op": row[0] / ops,
                 "py_calls_per_op": row[1] / ops,
                 "c_calls_per_op": row[2] / ops}
                for code, row in ranked[:top]]

    def totals(self) -> dict:
        ops = self.delivered_mtus or 1.0
        summed = [sum(row[i] for row in self.by_code.values())
                  for i in range(3)]
        return {"delivered_mtus": self.delivered_mtus,
                "bytecodes_per_op": summed[0] / ops,
                "py_calls_per_op": summed[1] / ops,
                "c_calls_per_op": summed[2] / ops,
                "garbage_objects_per_run": (self.garbage_objects
                                            / (self.runs or 1))}


def print_counts(counts: HotpathCounts, sort: str, top: int) -> None:
    totals = counts.totals()
    print(f"   {totals['delivered_mtus']:.0f} delivered MTUs: "
          f"{totals['bytecodes_per_op']:.1f} bytecodes, "
          f"{totals['py_calls_per_op']:.2f} Python calls, "
          f"{totals['c_calls_per_op']:.2f} C calls per MTU")
    print(f"   {totals['garbage_objects_per_run']:.0f} cyclic garbage objects "
          f"left per run (collector off, {counts.runs} runs)\n")
    print("   bytecodes/op  pycalls/op   ccalls/op  filename:lineno(function)")
    for row in counts.rows(sort, top):
        print(f"   {row['bytecodes_per_op']:12.1f}"
              f"  {row['py_calls_per_op']:10.3f}"
              f"  {row['c_calls_per_op']:10.3f}"
              f"  {row['file']}:{row['line']}({row['function']})")


def profile_json(stats: pstats.Stats, title: str, sort: str,
                 top: int) -> dict:
    """The top-N profile rows as a JSON-able dict (manifest side-band)."""
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:top]:  # fcn_list is set by sort_stats
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, line, name = func
        rows.append({
            "function": name, "file": filename, "line": line,
            "primitive_calls": cc, "calls": nc,
            "tottime": tt, "cumtime": ct,
        })
    return {"schema": 1, "kind": "profile", "title": title, "sort": sort,
            "total_calls": stats.total_calls, "total_tt": stats.total_tt,
            "rows": rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="cProfile the simulation hot path")
    parser.add_argument("--scheme", default="abc",
                        help="scheme to run over the LTE showcase trace "
                             "(default: abc)")
    parser.add_argument("--metro", default=None, metavar="MIX",
                        help="profile a metro_pack city with this scheme mix "
                             "(e.g. abc:0.5,cubic:0.3,bbr:0.2) instead of a "
                             "single-flow scheme scenario")
    parser.add_argument("--duration", type=float, default=15.0,
                        help="simulated seconds per scenario / metro cell")
    parser.add_argument("--top", type=int, default=25,
                        help="number of rows to print")
    parser.add_argument("--sort", default="tottime",
                        help="pstats sort key (tottime, cumulative, calls, …)")
    parser.add_argument("--counts", action="store_true",
                        help="count bytecodes and Python / C calls per "
                             "delivered MTU inside Scenario.run instead of "
                             "timing (deterministic; --sort calls orders by "
                             "Python calls; --out writes the rows as JSON)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also dump the profile to this file: raw pstats "
                             "data, or top-N rows as JSON for a .json suffix "
                             "(a bare filename lands in REPRO_RUN_DIR when "
                             "that is set)")
    args = parser.parse_args(argv)

    if args.metro is not None:
        workload = metro_workload(args.metro, args.duration)
        title = (f"metro city {args.metro}, {METRO_CELLS} cells x "
                 f"{args.duration:g}s")
    else:
        workload = scenario_workload(args.scheme, args.duration)
        title = f"{args.scheme} over LTE showcase, {args.duration:g}s"

    if args.counts:
        counts = HotpathCounts()
        counts.run(workload)
        print(f"=== hot-path counts: {title} (top {args.top}) ===")
        print_counts(counts, args.sort, args.top)
        if args.out is not None:
            out = in_run_dir(args.out)
            payload = {"schema": 1, "kind": "counts", "title": title,
                       **counts.totals(),
                       "rows": counts.rows(args.sort, args.top)}
            out.write_text(json.dumps(payload, indent=1) + "\n")
            print(f"wrote {out}")
        return 0

    print(f"=== hot-path profile: {title} (top {args.top} by {args.sort}) ===")
    stats = pstats.Stats(profile(workload))
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out is not None:
        out = in_run_dir(args.out)
        if out.suffix == ".json":
            payload = profile_json(stats, title, args.sort, args.top)
            out.write_text(json.dumps(payload, indent=1) + "\n")
        else:
            stats.dump_stats(out)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
