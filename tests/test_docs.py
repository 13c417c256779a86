"""Documentation health: intra-repo links resolve, README maps every figure.

The same link check runs as a CI job (``docs`` in ``.github/workflows/ci.yml``)
via ``tools/check_links.py``; running it here too means a doc that drifts from
the tree fails the tier-1 gate locally as well.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_links import check_file, iter_markdown_files  # noqa: E402


def test_markdown_links_resolve():
    errors = []
    files = list(iter_markdown_files(REPO_ROOT))
    assert (REPO_ROOT / "README.md") in files
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md") in files
    for path in files:
        errors += check_file(path, REPO_ROOT)
    assert not errors, "broken intra-repo links:\n" + "\n".join(errors)


def test_readme_maps_every_figure_benchmark():
    """Every Fig. 1–18 + Table 1 bench harness appears in the README table."""
    readme = (REPO_ROOT / "README.md").read_text()
    bench_files = sorted(
        p.name for p in (REPO_ROOT / "benchmarks").glob("bench_fig*.py"))
    bench_files.append("bench_table1_summary.py")
    missing = [name for name in bench_files if name not in readme]
    assert not missing, f"README figure table misses: {missing}"


def test_readme_documents_the_knobs():
    """README's knob table against ``repro.config``'s, row for row: one row
    per field, no row for anything else, and each row's Default cell shows
    the field's default (``None`` as "unset", ``False`` as "off")."""
    from repro.config import KNOBS

    readme = (REPO_ROOT / "README.md").read_text()
    rows = dict(re.findall(
        r"^\| `(REPRO_[A-Z_]+)` *\|.*\| *([^|]*?) *\|$", readme, re.M))
    declared = {knob.metadata["env"]: knob.default for knob in KNOBS.values()}
    assert sorted(rows) == sorted(declared)
    for env, default in declared.items():
        shown = ("unset" if default is None else "off" if default is False
                 else f"`{default}`")
        assert shown in rows[env], f"{env}: README says {rows[env]!r}"


def test_architecture_names_every_package():
    arch = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
    packages = sorted(p.name for p in (REPO_ROOT / "src" / "repro").iterdir()
                      if p.is_dir() and not p.name.startswith("__"))
    missing = [f"{name}/" for name in packages if f"{name}/" not in arch]
    assert not missing, f"ARCHITECTURE.md misses packages: {missing}"


#: A speed figure in prose: "3×" / "1.3–1.4x", "14 % faster / lower /
#: cheaper", "12 µs/op".
SPEED_FIGURE = re.compile(
    r"\d(?:×|x\b)"
    r"|\d\s?%\s+(?:faster|quicker|slower|lower|cheaper)\b"
    r"|\d\s?(?:µs|us)/op")
LEDGER_WORKLOADS = ("metro_ack", "metro_paced", "paper_figs", "runtime_arms")


def test_speed_figures_name_a_ledger_workload():
    """Every speed claim in the docs is a number from the one harness
    (`benchmarks/ledger/`): a paragraph that quotes one names the workload
    it was measured on, so it can be re-measured with one command."""
    for claim in ("3× faster", "1.3–1.4x the cost", "14 % lower", "9% faster",
                  "12 µs/op", "9.8 us/op"):
        assert SPEED_FIGURE.search(claim), claim
    for benign in ("95 % CI", "schemes × traces", "4096 x 2", "0x1f"):
        assert not SPEED_FIGURE.search(benign), benign
    offenders = []
    for path in (REPO_ROOT / "README.md", REPO_ROOT / "docs" / "ARCHITECTURE.md"):
        for paragraph in re.split(r"\n\s*\n", path.read_text()):
            figure = SPEED_FIGURE.search(paragraph)
            if figure and not any(w in paragraph for w in LEDGER_WORKLOADS):
                offenders.append(f"{path.name}: {figure.group()!r} in "
                                 f"{paragraph.strip()[:70]!r}")
    assert not offenders, ("speed figures that name no ledger workload:\n"
                           + "\n".join(offenders))


#: Total lines of ``src/**/*.py`` at the last PR that moved it.  The north
#: star says this number goes down: lower it when a PR shrinks ``src/``;
#: raising it is an edit a reviewer sees and a PR has to argue for.
SRC_LINE_CEILING = 14_261


def test_every_ci_job_gates():
    """A guard job either fails the merge or is deleted (ROADMAP item 3e)."""
    ci_yml = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "continue-on-error" not in ci_yml


def test_src_line_count_ratchet():
    total = sum(len(path.read_text().splitlines())
                for path in (REPO_ROOT / "src").rglob("*.py"))
    assert total <= SRC_LINE_CEILING, (
        f"src/ grew to {total} lines (ceiling {SRC_LINE_CEILING}): delete "
        "something, or raise the ceiling and say why in CHANGES.md")
