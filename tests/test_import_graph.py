"""A cell imports only what it runs.

Writing a metro city (``metro_pack`` + ``expand()``) loads no executor, no
``multiprocessing`` and no sender or simulator module; running its cells and
aggregating them loads no figure module, fuzz, Wi-Fi, explicit-scheme or AQM
module it does not use.  The fan-out points (the scheme registry, the
summaries, the qdisc table, the ``repro.runtime`` names) are
``"module:name"`` tables resolved on first use, and every entry resolves.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from pkgutil import resolve_name

SRC = Path(__file__).resolve().parents[1] / "src"

#: Run in a fresh interpreter: the modules loaded after set-up, then after
#: the city's jobs and ``aggregate_city``.
_CITY = """\
import json, sys
from repro.metro.spec import metro_pack
_cells, jobs = metro_pack(2, duration=1.0).expand()
setup = sorted(sys.modules)
from repro.metro.aggregate import aggregate_city
aggregate_city([job.run() for job in jobs])
print(json.dumps([setup, sorted(sys.modules)]))
"""

EXECUTOR = {"repro.runtime.executor", "repro.runtime.journal",
            "multiprocessing"}
UNUSED_BY_A_CITY = {"repro.aqm.codel", "repro.aqm.pie",
                    *(f"repro.experiments.{name}" for name in (
                        "runner", "coexistence", "wifi_eval", "timeseries"))}
UNUSED_PACKAGES = ("repro.fuzz.", "repro.wifi.", "repro.explicit.")


def _city_imports():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _CITY], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    setup, ran = json.loads(out)
    return set(setup), set(ran)


def test_a_metro_city_imports_only_what_it_runs():
    setup, ran = _city_imports()
    assert not setup & (EXECUTOR | {"repro.simulator.scenario"})
    assert not [name for name in setup if name.startswith("repro.cc.")
                and name != "repro.cc.registry"]
    assert "repro.simulator.scenario" in ran      # the guard sees the run
    assert not ran & (EXECUTOR | UNUSED_BY_A_CITY)
    assert not [name for name in ran
                if (name + ".").startswith(UNUSED_PACKAGES)]


def test_every_lazy_table_entry_resolves():
    """Each exact ``"repro.<module>:<name>"`` literal in ``src/`` imports and
    names an attribute of its module."""
    target = re.compile(r"repro(\.\w+)+:\w+")
    found = [node.value for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and target.fullmatch(node.value)]
    assert len(found) >= 7 + 12 + 9 + 9
    for entry in found:
        assert resolve_name(entry) is not None, entry
