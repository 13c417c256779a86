"""Summaries, the printed ledger and ``--compare``.

Noise rules (choosing-metrics guide): a metric is summarised as median and
quartiles with its sample count, never as a best-of-N; when the
interquartile range over the median is wider than the metric's bound the
metric is *unresolved*, which is not the same as unchanged.
"""

from __future__ import annotations

import json
from pathlib import Path
from statistics import median, quantiles
from typing import Any, Dict, Iterable, List, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_benchmark() -> Dict[str, Any]:
    with BENCHMARK_JSON.open(encoding="utf-8") as handle:
        return json.load(handle)


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, sample count and IQR / median of ``values``."""
    values = list(values)
    mid = median(values)
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid,) * 3
    return {"median": mid, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(mid) if mid else 0.0}


def percentile(values: Iterable[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation past the data)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def print_metrics(title: str, specs: Sequence[Dict[str, Any]],
                  values: Dict[str, float],
                  samples: Dict[str, Sequence[float]]) -> None:
    """One line per metric: name, unit, value and, where there are samples,
    quartiles, count and the unresolved mark."""
    print(f"\n{title}")
    for spec in specs:
        name = spec["name"]
        value = values[name]
        shown = str(value) if isinstance(value, int) else f"{value:.6g}"
        line = f"  {name:<34s} {shown:>14s} {spec['unit']:<10s}"
        if len(samples.get(name, ())) > 1:
            s = summarize(samples[name])
            line += (f" q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
                     f"  iqr/median {s['spread']:.1%}")
            if s["spread"] > spec.get("bound", float("inf")):
                line += "  UNRESOLVED (spread wider than bound)"
        print(line)


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------
def _runs(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    return report["runs"] if "runs" in report else [report]


def _by_workload(report: Dict[str, Any], trace: int
                 ) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for run in _runs(report):
        if run["trace"] == trace:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def verdict(a: Sequence[float], b: Sequence[float], better: str,
            bound: float) -> Tuple[float, str]:
    """``(relative change for the worse, verdict)`` of B against A."""
    sa, sb = summarize(a), summarize(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (sb["median"] - sa["median"]) / abs(sa["median"])
    if max(sa["spread"], sb["spread"]) > bound:
        every_b_better = (max(b) < min(a) if better == "lower"
                          else min(b) > max(a))
        return worse_by, "better" if every_b_better else "unresolved"
    return worse_by, "REGRESSED" if worse_by > bound else "ok"


def compare(path_a: str, path_b: str) -> int:
    """Print B against A per workload x end-to-end metric; 0 if all pass."""
    benchmark = load_benchmark()
    with open(path_a, encoding="utf-8") as handle:
        report_a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        report_b = json.load(handle)
    bad = 0
    runs_a, runs_b = _by_workload(report_a, 0), _by_workload(report_b, 0)
    print(f"{'workload':<14s}{'metric':<14s}{'A median':>12s}"
          f"{'B median':>12s}{'worse by':>10s}{'bound':>7s}  verdict")
    for workload in sorted(set(runs_a) & set(runs_b)):
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            a = [r["metrics"][name]["value"] for r in runs_a[workload]]
            b = [r["metrics"][name]["value"] for r in runs_b[workload]]
            worse_by, word = verdict(a, b, spec["better"], spec["bound"])
            bad += word not in ("ok", "better")
            print(f"{workload:<14s}{name:<14s}{median(a):>12.5g}"
                  f"{median(b):>12.5g}{worse_by:>+10.1%}"
                  f"{spec['bound']:>7.0%}  {word} (n={len(a)}/{len(b)})")

    # Counts, simulated statistics and digests repeat exactly or not at all.
    exact = {spec["name"] for spec in benchmark["per_layer"]
             if spec["unit"] == "count" or spec["name"].startswith("sim.")}
    for trace in (0, 1):
        keyed_b = {(r["workload"], r["seed"]): r
                   for r in _runs(report_b) if r["trace"] == trace}
        for run in _runs(report_a):
            other = keyed_b.get((run["workload"], run["seed"]))
            if run["trace"] != trace or other is None:
                continue
            where = f"{run['workload']} seed {run['seed']}"
            if run["digest"] != other["digest"]:
                bad += 1
                print(f"MISMATCH {where}: digest {run['digest']} != "
                      f"{other['digest']}")
            for name in sorted(exact & set(run["metrics"])):
                va = run["metrics"][name]["value"]
                vb = other["metrics"][name]["value"]
                if va != vb:
                    bad += 1
                    print(f"MISMATCH {where}: {name} {va} != {vb}")
    print("all pass" if not bad else f"{bad} line(s) did not pass")
    return 0 if not bad else 1
