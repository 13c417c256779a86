"""Documentation health: intra-repo links resolve, README maps every figure.

The same link check runs as a CI job (``docs`` in ``.github/workflows/ci.yml``)
via ``tools/check_links.py``; running it here too means a doc that drifts from
the tree fails the tier-1 gate locally as well.
"""

from __future__ import annotations

import ast
import collections
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


def test_markdown_paths_named_in_src_exist():
    """A docstring that points at a document points at one that exists."""
    missing = [f"{path.relative_to(REPO_ROOT)}: {name}"
               for path in sorted((REPO_ROOT / "src").rglob("*.py"))
               for name in re.findall(r"[\w./-]+\.md\b", path.read_text())
               if not (REPO_ROOT / name).is_file()]
    assert not missing, "src/ names missing documents:\n" + "\n".join(missing)


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
SRC_LINE_CEILING = 13_704


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


#: Public definitions in ``src/repro/`` that nothing in ``src/``, ``tools/``,
#: ``benchmarks/`` or ``examples/`` names, kept on purpose.  Anything else
#: the scan below finds is dead surface: give it a reader or delete it.
DEAD_SURFACE_ALLOWLIST = {
    # How a user brings a real Mahimahi trace (the paper's are not shipped).
    "from_mahimahi_file",
    # How a user builds a trace from a measured rate series.
    "from_rate_series",
    # Per-queue delay of the dual-queue scheduler, for Scenario.every probes.
    "abc_queuing_delay",
    "nonabc_queuing_delay",
    # Fig. 12's fairness measures, for ad hoc analysis of sweep results.
    "throughput_ratio",
    "relative_std",
    # Space-Saving's per-key overestimation bound, the sketch's guarantee.
    "error_bound",
    # §5.1.2's encoding tables and marking rules (the sender, routers and
    # receiver inline their use; the tests hold the inlined forms to them).
    "sender_codepoint",
    "receiver_echo",
    "apply_brake",
    "proxied_brake",
    "proxied_receiver_accel",
    # The ABC dual-window cap (§5.1.1) in readable form; ABCWindowControl
    # inlines it.
    "clamp_to",
    # How a user fits a real trace to an experiment's capacity and length.
    "scaled",
    "truncated",
    # Eq. 2's accelerate fraction, router and marker side, and the fraction
    # a sender observes: ROADMAP item 3a's mark-fraction signal reads them.
    "accel_fraction",
    "observed_accel_fraction",
    # Theorem 3.1 and the Appendix A fluid model: the analytic oracle the
    # packet simulator is checked against.
    "is_theoretically_stable",
    "equilibrium_rate_fraction",
    "empirical_stability",
    # The metro-churn fuzz generator behind the committed near-miss corpus.
    "SmallMetroGen",
    "sample_city",
    # Reads what the fuzz campaign's save_corpus_entry writes.
    "load_corpus_entry",
}


def _public_definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes,
    whose names do not start with an underscore."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            if not node.name.startswith("_"):
                yield node
            if isinstance(node, ast.ClassDef):
                yield from (sub for sub in node.body if isinstance(sub, kinds)
                            and not sub.name.startswith("_"))


_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _readers(tree: ast.Module):
    """``(name, line)`` for every identifier the code reads: names,
    attributes, imported names, keyword arguments, and the words of string
    literals (``getattr`` loops name attributes that way).  Comments and
    docstrings are prose, not readers."""
    prose = {id(node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Expr)
             and isinstance(node.value, ast.Constant)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in prose):
            yield from ((name, node.lineno)
                        for name in _WORD.findall(node.value))


def test_no_dead_public_surface_in_src():
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "tools", "benchmarks", "examples")
             for path in (REPO_ROOT / top).rglob("*.py")}
    readers = {path: list(_readers(tree)) for path, tree in trees.items()}
    uses = collections.Counter(name for found in readers.values()
                               for name, _ in found)
    dead = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in _public_definitions(trees[path]):
            name = node.name
            own = sum(1 for read, line in readers[path] if read == name
                      and node.lineno <= line <= node.end_lineno)
            if uses[name] == own:
                dead.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} "
                            f"{name}")
    dead = [entry for entry in dead
            if entry.split()[-1] not in DEAD_SURFACE_ALLOWLIST]
    assert not dead, ("public definitions nothing outside tests/ reads — "
                      "delete them or allowlist them with a reason: "
                      + ", ".join(dead))


def test_dead_surface_allowlist_has_no_stale_entries():
    defined = {node.name
               for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
               for node in _public_definitions(ast.parse(path.read_text()))}
    assert DEAD_SURFACE_ALLOWLIST <= defined
