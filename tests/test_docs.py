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
from pkgutil import resolve_name

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
SRC_LINE_CEILING = 12_856


def test_every_ci_job_gates():
    """A guard job either fails the merge or is deleted (ROADMAP aim 3)."""
    ci_yml = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    assert "continue-on-error" not in ci_yml


def test_src_line_count_ratchet():
    total = sum(len(path.read_text().splitlines())
                for path in (REPO_ROOT / "src").rglob("*.py"))
    assert total <= SRC_LINE_CEILING, (
        f"src/ grew to {total} lines (ceiling {SRC_LINE_CEILING}): delete "
        "something, or raise the ceiling and say why in CHANGES.md")


def _src_trees():
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        yield path.relative_to(REPO_ROOT / "src" / "repro"), ast.parse(
            path.read_text())


#: The functions allowed to construct a ``Scenario``: the one builder of a
#: ``ScenarioSpec``, and Fig. 4's inter-ACK probe, which pushes raw packets
#: into the MAC with no flow (``wifi_eval``'s docstring says why).
SCENARIO_BUILDERS = {
    ("experiments/scenario_spec.py", "build"),
    ("experiments/wifi_eval.py", "fig4_inter_ack"),
}


def test_scenarios_are_built_from_a_spec():
    """A third hand-wired ``Scenario()`` is an edit to this set."""
    found = set()
    for path, tree in _src_trees():
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.as_posix(), function.name)
                          for node in ast.walk(function)
                          if isinstance(node, ast.Call)
                          and isinstance(node.func, ast.Name)
                          and node.func.id == "Scenario"}
    assert found == SCENARIO_BUILDERS


#: The job functions a ``SweepJob(func=...)`` in ``src/`` may name: every
#: grid cell is a spec plus a named summary.
JOB_FUNCTIONS = {"spec_cell"}


def test_one_job_function():
    """A second job function is an edit to this set."""
    found = {}
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "SweepJob"):
                funcs = [kw.value for kw in node.keywords if kw.arg == "func"]
                for func in funcs + node.args[:1]:
                    found[f"{path}:{node.lineno}"] = _dotted(func)
    assert found and set(found.values()) <= JOB_FUNCTIONS, found


def _bound_names(node) -> set:
    """Names a class definition or an assignment statement binds."""
    if isinstance(node, ast.ClassDef):
        return {node.name}
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return {getattr(target, "id", None) for target in targets}


def test_link_spec_is_defined_once():
    definitions = [f"{path}:{node.lineno}" for path, tree in _src_trees()
                   for node in ast.walk(tree) if "LinkSpec" in _bound_names(node)]
    assert len(definitions) == 1, definitions


def _parameters(function) -> list:
    arguments = function.args
    return [arg.arg for arg in (arguments.posonlyargs + arguments.args
                                + arguments.kwonlyargs)]


def test_the_executor_is_the_only_sweep_configuration():
    """Entry points, grid runners and the fuzz campaign take a ready
    ``SweepExecutor``: no ``jobs`` / ``cache_dir`` / ``journal`` /
    ``failures`` alias, no ``get_executor``, no per-run override of the
    executor's policy and no second salt."""
    aliases = {"jobs", "cache_dir", "journal", "failures"}
    offenders, both = [], set()
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            where = f"{path.as_posix()}:{node.lineno} {node.name}"
            declared = set(_parameters(node))
            if {"jobs", "cache_dir"} <= declared:
                both.add((path.as_posix(), node.name))
            extra = declared & aliases
            if path.parts[0] in ("experiments", "fuzz") and extra:
                offenders.append(f"{where}({', '.join(sorted(extra))})")
            if node.name == "get_executor":
                offenders.append(where)
    assert not offenders, "sweep configuration outside the executor: " + (
        ", ".join(offenders))
    assert both == {("runtime/executor.py", "__init__")}

    tree = ast.parse((REPO_ROOT / "src" / "repro" / "runtime"
                      / "executor.py").read_text())
    (executor,) = [node for node in tree.body if isinstance(node, ast.ClassDef)
                   and node.name == "SweepExecutor"]
    methods = {node.name: _parameters(node) for node in executor.body
               if isinstance(node, ast.FunctionDef)}
    assert methods["run"] == ["self", "jobs"]
    assert "salt" not in methods["__init__"]


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else "?"


def test_no_unseeded_randomness_in_src():
    """Every random stream in the simulator is a seeded object: module-level
    ``random.<fn>`` and ``np.random.<fn>`` draw from hidden global state, so
    only a seeded ``random.Random(seed)`` / ``np.random.default_rng(seed)``
    may appear (and nothing imports the functions by name)."""
    offenders = []
    for path, tree in _src_trees():
        for node in ast.walk(tree):
            where = f"{path}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom) and node.module in (
                    "random", "numpy.random"):
                offenders.append(f"{where} from {node.module} import")
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            seeded = name in ("random.Random", "np.random.default_rng",
                              "numpy.random.default_rng")
            if (name.startswith(("random.", "np.random.", "numpy.random."))
                    and not (seeded and (node.args or node.keywords))):
                offenders.append(f"{where} {name}()")
    assert not offenders, "unseeded randomness: " + ", ".join(offenders)


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
    "ABC_INTERPRETATION",
    "CLASSIC_INTERPRETATION",
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
    """``(name, node, is_method)`` for every module-level function, class
    and constant, and every method of those classes, whose name does not
    start with an underscore."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            if not node.name.startswith("_"):
                yield node.name, node, False
            if isinstance(node, ast.ClassDef):
                yield from ((sub.name, sub, True) for sub in node.body
                            if isinstance(sub, kinds)
                            and not sub.name.startswith("_"))
        else:
            yield from ((name, node, False)
                        for name in sorted(_bound_names(node) - {None})
                        if not name.startswith("_"))


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


def _module_of(path: Path) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b`` (a package's ``__init__`` is
    the package)."""
    parts = path.relative_to(REPO_ROOT / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


#: A lazy table entry: ``pkgutil.resolve_name`` imports it on first use.
_TARGET = re.compile(r"(repro(?:\.\w+)+):(\w+)")


def _resolves(target: str) -> bool:
    try:
        resolve_name(target)
    except (ImportError, AttributeError):
        return False
    return True


def _imported_names(tree: ast.Module) -> set:
    """``(module, name)`` for every name this file imports from a module,
    reads as ``<module alias>.<name>``, or names in an exact
    ``"repro.<module>:<name>"`` literal that resolves."""
    found, aliases = set(), {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and _TARGET.fullmatch(node.value) and _resolves(node.value)):
            found.add(tuple(node.value.split(":")))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                found.add((node.module, alias.name))
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}")
    found |= {(aliases[_dotted(node.value)], node.attr)
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and _dotted(node.value) in aliases}
    return found


def test_no_dead_public_surface_in_src():
    """A module-level function, class or constant is read when its own
    module reads it, or some file imports it from that module or reads it
    as ``<module alias>.<name>`` (each name has one import path, so this
    resolves exactly).  A method is read when anything names it outside
    its own body."""
    trees = {path: ast.parse(path.read_text())
             for top in ("src", "tools", "benchmarks", "examples")
             for path in (REPO_ROOT / top).rglob("*.py")}
    readers = {path: list(_readers(tree)) for path, tree in trees.items()}
    uses = collections.Counter(name for found in readers.values()
                               for name, _ in found)
    imported = set().union(*map(_imported_names, trees.values()))
    dead = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        module = _module_of(path)
        for name, node, is_method in _public_definitions(trees[path]):
            own = [line for read, line in readers[path] if read == name]
            inside = sum(node.lineno <= line <= node.end_lineno
                         for line in own)
            read = (uses[name] > inside if is_method
                    else len(own) > inside or (module, name) in imported)
            if not read:
                dead.append(f"{path.relative_to(REPO_ROOT)}:{node.lineno} "
                            f"{name}")
    dead = [entry for entry in dead
            if entry.split()[-1] not in DEAD_SURFACE_ALLOWLIST]
    assert not dead, ("public definitions nothing outside tests/ reads — "
                      "delete them or allowlist them with a reason: "
                      + ", ".join(dead))


def test_dead_surface_allowlist_has_no_stale_entries():
    defined = {name
               for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
               for name, _, _ in _public_definitions(
                   ast.parse(path.read_text()))}
    assert DEAD_SURFACE_ALLOWLIST <= defined


#: Switch parameters in ``src/repro/`` that no call in ``src/``, ``tools/``,
#: ``benchmarks/`` or ``examples/`` passes, kept on purpose, each with the
#: non-test caller that needs it.  Anything else the scan below finds is a
#: behaviour only tests select: delete the switch and the code it keeps.
UNSET_SWITCH_ALLOWLIST: dict = {}


def _switches(tree: ast.Module):
    """``(key, callee, parameter, position, line)`` for every parameter of a
    function or method whose default is a ``bool``, ``str`` or ``None``
    literal.  ``callee`` is the name a call spells (the class for
    ``__init__``); ``position`` is the parameter's index among a call's
    positional arguments (``None`` when keyword-only)."""
    owners = {id(sub): node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for sub in node.body}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        owner = owners.get(id(node))
        bound = owner is not None and not any(
            _dotted(d) == "staticmethod" for d in node.decorator_list)
        if owner is None:
            key, callee = node.name, node.name
        elif node.name == "__init__":
            key, callee = owner.name, owner.name
        else:
            key, callee = f"{owner.name}.{node.name}", node.name
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        defaults = ([None] * (len(positional) - len(arguments.defaults))
                    + arguments.defaults)
        params = [(arg, default, index - bound) for index, (arg, default)
                  in enumerate(zip(positional, defaults))]
        params += [(arg, default, None) for arg, default
                   in zip(arguments.kwonlyargs, arguments.kw_defaults)]
        for arg, default, position in params:
            if (isinstance(default, ast.Constant)
                    and (default.value is None
                         or isinstance(default.value, (bool, str)))):
                yield (f"{key}({arg.arg})", callee, arg.arg, position,
                       node.lineno)


def _passed_through(tree: ast.Module) -> set:
    """``id``s of the keywords ``name=name`` that hand on the enclosing
    function's own parameter ``name``: such a call sets nothing itself."""
    through = set()
    for function in ast.walk(tree):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = function.args
            params = {arg.arg for arg in (arguments.posonlyargs
                                          + arguments.args
                                          + arguments.kwonlyargs)}
            through |= {id(kw) for node in ast.walk(function)
                        if isinstance(node, ast.Call) for kw in node.keywords
                        if kw.arg in params and isinstance(kw.value, ast.Name)
                        and kw.value.id == kw.arg}
    return through


def _unset_switches() -> dict:
    """Switches no non-test call passes.  A call passes a parameter by
    keyword (matched by name, as methods are matched above; a string key
    of a dict literal counts, since such dicts are spread into ``**``
    calls; ``name=name`` handing on the caller's own parameter does not),
    or at its position when the call spells the callee's name."""
    keywords, positional = set(), collections.Counter()
    for top in ("src", "tools", "benchmarks", "examples"):
        for path in (REPO_ROOT / top).rglob("*.py"):
            tree = ast.parse(path.read_text())
            through = _passed_through(tree)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call):
                    keywords |= {kw.arg for kw in node.keywords
                                 if id(kw) not in through}
                    callee = _dotted(node.func).rpartition(".")[2]
                    positional[callee] = max(positional[callee],
                                             len(node.args))
                elif isinstance(node, ast.Dict):
                    keywords |= {key.value for key in node.keys
                                 if isinstance(key, ast.Constant)}
    unset = {}
    for path, tree in _src_trees():
        for key, callee, param, position, line in _switches(tree):
            if param not in keywords and (position is None
                                          or positional[callee] <= position):
                unset[key] = f"src/repro/{path.as_posix()}:{line}"
    return unset


def test_no_unset_switch_in_src():
    """An option needs a non-test caller that wants a value other than its
    default; a switch only tests set keeps a second behaviour alive for
    nothing the repo runs."""
    unset = {key: where for key, where in _unset_switches().items()
             if key not in UNSET_SWITCH_ALLOWLIST}
    assert not unset, ("switches no call outside tests/ sets — delete them "
                       "with the code they keep, or allowlist them with the "
                       "caller that needs them: " + ", ".join(
                           f"{where} {key}" for key, where in sorted(
                               unset.items())))


def test_unset_switch_allowlist_has_no_stale_entries():
    assert set(UNSET_SWITCH_ALLOWLIST) <= set(_unset_switches())


def _is_package(module: str) -> bool:
    return (REPO_ROOT / "src" / Path(*module.split(".")) / "__init__.py").is_file()


def _names_a_module(package: str, name: str) -> bool:
    base = REPO_ROOT / "src" / Path(*package.split(".")) / name
    return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()


def _ledger_imports():
    """``{package: names}`` that ``benchmarks/ledger/`` imports from
    ``repro.<package>`` itself (the ledger is not edited with the code)."""
    found = collections.defaultdict(set)
    for path in (REPO_ROOT / "benchmarks" / "ledger").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.count(".") == 1 and _is_package(node.module)):
                found[node.module] |= {alias.name for alias in node.names}
    return found


def test_package_inits_are_docstrings_only():
    """One import path per name: a package ``__init__`` is its docstring
    (the package's module map), plus ``__version__`` in ``repro`` and, in
    the packages the ledger imports from, exactly the names it imports:
    imported, or entries ``"<package>.<module>:<name>"`` of a ``_LAZY``
    table that a PEP 562 ``__getattr__`` resolves on first use."""
    ledger = _ledger_imports()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("__init__.py")):
        package = ".".join(path.parent.relative_to(REPO_ROOT / "src").parts)
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text)
        assert ast.get_docstring(tree), path
        imported, lazy, table = set(), False, False
        for node in tree.body[1:]:
            where = f"{path.relative_to(REPO_ROOT)}:{node.lineno}"
            targets = [getattr(target, "id", None)
                       for target in getattr(node, "targets", [])]
            if package == "repro" and targets == ["__version__"]:
                continue
            if targets == ["_LAZY"]:
                table = True
                for key, value in zip(node.value.keys, node.value.values):
                    module, _, name = value.value.partition(":")
                    assert name == key.value, where
                    assert module.startswith(package + "."), where
                    assert lines[value.end_lineno - 1].endswith(
                        "# read by benchmarks/ledger"), where
                    imported.add(name)
                continue
            if isinstance(node, ast.FunctionDef) and node.name == "__getattr__":
                lazy = True
                continue
            assert isinstance(node, ast.ImportFrom), where
            assert node.module.startswith(package + "."), where
            assert lines[node.end_lineno - 1].endswith(
                "# read by benchmarks/ledger"), where
            imported |= {alias.name for alias in node.names}
        assert imported == ledger.get(package, set()), path
        assert lazy == table, path


#: ``from repro.<x> import <names>``, one line or parenthesised.
_FROM_IMPORT = re.compile(r"from (repro\.\w+) import (\([^)]*\)|[^\n#]*)")


def test_code_docs_and_ci_import_from_defining_modules():
    """Outside ``benchmarks/ledger/``, ``from repro.<package> import X``
    names a module of the package, never a definition: docs, CI steps and
    scripts embedded in strings included."""
    paths = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md")),
             REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
             REPO_ROOT / ".github" / "workflows" / "ci.yml"]
    paths += [path for top in ("src", "tests", "tools", "examples", "benchmarks")
              for path in sorted((REPO_ROOT / top).rglob("*.py"))
              if "ledger" not in path.parts]
    offenders = []
    for path in paths:
        text = path.read_text()
        for match in _FROM_IMPORT.finditer(text):
            package, names = match.groups()
            if not _is_package(package):
                continue
            line = text.count("\n", 0, match.start()) + 1
            offenders += [f"{path.relative_to(REPO_ROOT)}:{line} {package}."
                          f"{part.split()[0]}"
                          for part in names.strip("()").split(",")
                          if part.strip()
                          and not _names_a_module(package, part.split()[0])]
    assert not offenders, ("import these from the module that defines them:\n"
                           + "\n".join(offenders))
