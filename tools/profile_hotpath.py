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
import json
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Cells in a ``--metro`` city: two square-wave sectors and two trace-driven
#: cells, enough for every link model and a few dozen churning flows.
METRO_CELLS = 4


def profile_scenario(scheme: str, duration: float) -> cProfile.Profile:
    from repro.cellular.synthetic import lte_showcase_trace
    from repro.experiments.runner import run_single_bottleneck

    trace = lte_showcase_trace(duration=duration, seed=7)
    profiler = cProfile.Profile()
    profiler.enable()
    run_single_bottleneck(scheme, trace, rtt=0.1, duration=duration,
                          buffer_packets=250, seed=0)
    profiler.disable()
    return profiler


def profile_metro(mix: str, duration: float) -> cProfile.Profile:
    from repro.metro.spec import metro_pack

    _cells, jobs = metro_pack(METRO_CELLS, mixes=(mix,),
                              duration=duration).expand()
    profiler = cProfile.Profile()
    profiler.enable()
    for job in jobs:
        job.run()
    profiler.disable()
    return profiler


def resolve_out(out: Path) -> Path:
    """Route bare filenames into ``REPRO_RUN_DIR`` when it is set."""
    from repro.obs.manifest import run_dir

    directory = run_dir()
    if directory is not None and out.parent == Path("."):
        directory.mkdir(parents=True, exist_ok=True)
        return directory / out
    return out


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
    parser.add_argument("--out", type=Path, default=None,
                        help="also dump the profile to this file: raw pstats "
                             "data, or top-N rows as JSON for a .json suffix "
                             "(a bare filename lands in REPRO_RUN_DIR when "
                             "that is set)")
    args = parser.parse_args(argv)

    if args.metro is not None:
        profiler = profile_metro(args.metro, args.duration)
        title = (f"metro city {args.metro}, {METRO_CELLS} cells x "
                 f"{args.duration:g}s")
    else:
        profiler = profile_scenario(args.scheme, args.duration)
        title = f"{args.scheme} over LTE showcase, {args.duration:g}s"

    print(f"=== hot-path profile: {title} (top {args.top} by {args.sort}) ===")
    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort).print_stats(args.top)
    if args.out is not None:
        out = resolve_out(args.out)
        if out.suffix == ".json":
            payload = profile_json(stats, title, args.sort, args.top)
            out.write_text(json.dumps(payload, indent=1) + "\n")
        else:
            stats.dump_stats(out)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
