"""Golden regression for a small fixed-seed metro city.

Pins the complete per-cell result dicts — churn arrival schedules are
implicit in the flow-completion lists, scheme assignment in the ``schemes``
lists, and every throughput/delay float is compared exactly — plus the
city-wide aggregates, for one 4-cell city (two trace-driven cells, two
square-wave sectors) at seed 0.  The same golden values must come back from

* serial in-process execution,
* a 2-worker process pool (determinism across process boundaries), and
* a cache replay (determinism of the content-addressed result cache).

Regenerate only for an *intentional* change to the metro workload or the
simulation semantics::

    PYTHONPATH=src python tests/test_metro_golden.py --regenerate
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import run_seed_grid
from repro.metro.aggregate import aggregate_city
from repro.metro.spec import metro_pack
from repro.runtime.executor import SweepExecutor

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_metro_city.json"

CITY = dict(n_cells=4, duration=3.0, trace_seed=2, seeds=(0,),
            arrival_rate=1.5)


def run_city(executor: SweepExecutor) -> dict:
    spec = metro_pack(**CITY)
    results = run_seed_grid(spec.jobs_for_seed, 0, spec.seeds, executor)
    return {"cells": results, "city": aggregate_city(results)}


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["payload"]


def _roundtrip(payload: dict) -> dict:
    # Through JSON and back, so float repr/parse round-tripping (exact for
    # IEEE doubles) and int/list normalisation match the golden file's.
    return json.loads(json.dumps(payload))


def test_serial_matches_golden():
    assert _roundtrip(run_city(SweepExecutor(jobs=1))) == _golden()


def test_parallel_matches_golden():
    assert _roundtrip(run_city(SweepExecutor(jobs=2))) == _golden()


CITY_CELL_NAMES = tuple(f"cell-{i:03d}" for i in range(CITY["n_cells"]))


def test_cache_replay_matches_golden(tmp_path):
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path / "cache")
    assert _roundtrip(run_city(executor)) == _golden()    # populate
    assert _roundtrip(run_city(executor)) == _golden()    # replay
    assert executor.last_stats.cache_hits == len(CITY_CELL_NAMES), (
        "the replay run was expected to come entirely from the cache")


def test_city_shape():
    golden = _golden()
    assert [cell["cell"] for cell in golden["cells"]] == list(CITY_CELL_NAMES)
    city = golden["city"]
    assert city["cells"] == CITY["n_cells"]
    assert city["offered_flows"] > CITY["n_cells"] * 2, (
        "churn arrivals disappeared from the golden city")


def _regenerate() -> None:
    payload = _roundtrip(run_city(SweepExecutor(jobs=1)))
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps({
        "description": "full per-cell results + city aggregates of the "
                       "4-cell golden metro city; regenerate only for "
                       "intentional workload/semantics changes",
        "scenario": {**CITY, "seeds": list(CITY["seeds"])},
        "payload": payload,
    }, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys
    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
