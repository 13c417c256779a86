"""Documentation health: intra-repo links resolve, README maps every figure.

The same link check runs as a CI job (``docs`` in ``.github/workflows/ci.yml``)
via ``tools/check_links.py``; running it here too means a doc that drifts from
the tree fails the tier-1 gate locally as well.
"""

from __future__ import annotations

import ast
import collections
import functools
import re
import sys
import textwrap
import tokenize
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
    """Every ``tools/reproduce.py`` row id appears in the README's figure
    table."""
    from reproduce import ROWS

    readme = (REPO_ROOT / "README.md").read_text()
    missing = [row.id for row in ROWS if f"| `{row.id}`" not in readme]
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
SRC_LINE_CEILING = 12_096


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
    # Fig. 12's fairness measures, for ad hoc analysis of sweep results.
    "throughput_ratio",
    "relative_std",
    # Space-Saving's per-key overestimation bound, the sketch's guarantee.
    "error_bound",
    # How a user fits a real trace to an experiment's capacity and length.
    "scaled",
    "truncated",
    # Theorem 3.1 and the Appendix A fluid model: the analytic oracle the
    # packet simulator is checked against.
    "is_theoretically_stable",
    "equilibrium_rate_fraction",
    "empirical_stability",
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


#: Defaulted parameters and dataclass fields in ``src/repro/`` that no call
#: in ``src/``, ``tools/``, ``benchmarks/`` or ``examples/`` sets, kept on
#: purpose, each with the caller that needs it.  Anything else the scan below
#: finds is a value only tests change: make it the constant it always is (or,
#: for a switch, delete it and the code it keeps).
UNSET_SWITCH_ALLOWLIST: dict = {
    # The Euler step of the analytic oracle: the fixed-point tests
    # (test_stability.py, test_property_based.py) sweep it.
    "FluidModel.simulate(step)": "tests/test_property_based.py",
}


#: A ``class`` line ending in ``# record: ...`` declares a result record:
#: its fields are what its writers fill in, not options.
_RECORD = re.compile(r"#\s*record\b")


def _parse(text: str) -> ast.Module:
    """``ast.parse``, noting on each class whether it is a record."""
    tree, lines = ast.parse(text), text.splitlines()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            node.record = bool(_RECORD.search(lines[node.lineno - 1]))
    return tree


def _caller_trees() -> dict:
    """``{path: tree}`` of every file whose calls may set a switch, keyed by
    the path from the repo root; the switches are those under ``src/``."""
    return {path.relative_to(REPO_ROOT): _parse(path.read_text())
            for top in ("src", "tools", "benchmarks", "examples")
            for path in (REPO_ROOT / top).rglob("*.py")}


def _functions(tree: ast.Module):
    """``(function, owner class or None, key, callee)`` for every function
    and method: ``key`` names it in the switch keys below, ``callee`` is the
    name a call spells (the class for ``__init__``)."""
    owners = {id(sub): node for node in ast.walk(tree)
              if isinstance(node, ast.ClassDef) for sub in node.body}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = owners.get(id(node))
            if owner is None:
                yield node, owner, node.name, node.name
            elif node.name == "__init__":
                yield node, owner, owner.name, owner.name
            else:
                yield node, owner, f"{owner.name}.{node.name}", node.name


def _positional(function, owner) -> list:
    """The parameters a call's positional arguments fill, in order."""
    arguments = function.args
    bound = owner is not None and not any(
        _dotted(d) == "staticmethod" for d in function.decorator_list)
    return (arguments.posonlyargs + arguments.args)[bound:]


def _is_dataclass(node) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        _dotted(getattr(decorator, "func", decorator)).endswith("dataclass")
        for decorator in node.decorator_list)


def _fields(node: ast.ClassDef) -> list:
    """``(name, defaulted, line)`` for each constructor field a
    ``@dataclass`` declares, in order: an annotated name that is no
    ``ClassVar`` and no ``field(init=False)``.  A field is defaulted unless
    it has no default or starts as an empty container
    (``field(default_factory=list)``), a slot the record's writers fill."""
    found = []
    for stmt in node.body:
        if (not isinstance(stmt, ast.AnnAssign)
                or "ClassVar" in ast.unparse(stmt.annotation)):
            continue
        value = stmt.value
        options = ({kw.arg: kw.value for kw in value.keywords}
                   if isinstance(value, ast.Call)
                   and _dotted(value.func).endswith("field") else None)
        if getattr((options or {}).get("init"), "value", True) is False:
            continue
        defaulted = value is not None and (options is None or (
            "default" in options or ("default_factory" in options and _dotted(
                options["default_factory"]) not in ("list", "dict", "set"))))
        found.append((stmt.target.id, defaulted, stmt.lineno))
    return found


def _enclosing_classes(tree: ast.Module) -> dict:
    """``id(node)`` -> the name of the innermost class around it."""
    enclosing = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            enclosing.update((id(node), cls.name) for node in ast.walk(cls))
    return enclosing


def _named(node):
    """The name a callable expression spells (``f``, ``mod.f`` and
    ``"repro.mod:f"`` spell ``f``), or ``None``."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        return _dotted(node).rpartition(".")[2]
    if (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and _TARGET.fullmatch(node.value)):
        return node.value.rpartition(":")[2]
    return None


class _Index:
    """What the scan knows of all caller trees: each class's bases, each
    dataclass's constructor fields (inherited ones first), each callee's
    positional parameters, and the module-level dict literals whose values
    all name callables (``SUMMARIES``, ``_REGISTRY``), so that a call of
    ``TABLE[key]`` reaches the callable its key names."""

    def __init__(self, trees: dict):
        nodes = [node for tree in trees.values() for node in ast.walk(tree)]
        classes = {node.name: node for node in nodes
                   if isinstance(node, ast.ClassDef)}
        self.bases = {name: [_dotted(base).rpartition(".")[2]
                             for base in node.bases]
                      for name, node in classes.items()}
        self.fields = {name: self._inherited(name, classes)
                       for name, node in classes.items()
                       if _is_dataclass(node)}
        self.signatures = {name: [field for field, _, _ in fields]
                           for name, fields in self.fields.items()}
        for tree in trees.values():
            for function, owner, _, callee in _functions(tree):
                self.signatures.setdefault(callee, [
                    arg.arg for arg in _positional(function, owner)])
        self.tables = {}
        for node in (node for tree in trees.values() for node in tree.body):
            value = getattr(node, "value", None)
            if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
                    value, ast.Dict) and value.keys:
                table = {getattr(key, "value", None): _named(entry)
                         for key, entry in zip(value.keys, value.values)}
                if None not in table.values():
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    self.tables.update((target.id, table) for target in targets
                                       if isinstance(target, ast.Name))

    def _inherited(self, name, classes) -> list:
        node = classes.get(name)
        if not _is_dataclass(node):
            return []
        return [field for base in self.bases[name]
                for field in self._inherited(base, classes)] + _fields(node)

    def ancestors(self, name) -> set:
        found, todo = set(), list(self.bases.get(name, ()))
        while todo:
            base = todo.pop()
            if base not in found:
                found.add(base)
                todo += self.bases.get(base, ())
        return found

    def targets(self, node, keys=None):
        """The callees a call of ``node`` can set: the name it spells plus,
        for a class, its ancestors; for ``TABLE[key]`` (or
        ``resolve_name(TABLE[key])``) the callable a constant key names, or
        one ``keys`` binds the parameter ``key`` to, else every callable of
        the table; ``None`` when unknown."""
        if _named(getattr(node, "func", None)) == "resolve_name" and node.args:
            node = node.args[0]
            if not isinstance(node, (ast.Subscript, ast.Constant)):
                return None
        if not isinstance(node, ast.Subscript):
            name = _named(node)
            return None if name is None else {name} | self.ancestors(name)
        table = self.tables.get(_dotted(node.value))
        if table is None:
            return None
        key = getattr(node.slice, "value",
                      (keys or {}).get(_dotted(node.slice)))
        names = [table[key]] if key in table else table.values()
        return set().union(*({name} | self.ancestors(name) for name in names))


class _Site(collections.namedtuple(
        "_Site", "scopes callees args keywords func")):
    """One call: the enclosing functions' ``(key, callee, parameters,
    **-name)``, innermost last; the callees ``_Index.targets`` finds;
    positional ``args``; ``keywords`` as ``(name or None for a ** spread,
    value)``; and the called expression, which a ``TABLE[key]`` call
    resolves again once its key is known (``None`` for a dict)."""

    def handed_on(self, name):
        """The enclosing function whose own parameter ``name`` is."""
        return next((scope for scope in reversed(self.scopes)
                     if name in scope[2]), None)

    def keys(self, index: _Index, outer: dict) -> dict:
        """The string constants this call passes its callee's parameters:
        literal ones, and those of the caller's own parameters that
        ``outer`` binds."""
        callees = self.callees or ()
        signature = (index.signatures.get(next(iter(callees)), [])
                     if len(callees) == 1 else [])
        passed = list(zip(signature, self.args)) + self.keywords
        found = {name: value.value for name, value in passed
                 if isinstance(value, ast.Constant)
                 and isinstance(value.value, str)}
        found.update((name, outer[value.id]) for name, value in passed
                     if isinstance(value, ast.Name) and value.id in outer)
        return found


def _switches(tree: ast.Module, index: _Index):
    """``(key, callee, parameter, position, line, is_field)`` for every
    defaulted parameter of a function or method (a ``bool``, a number, a
    tuple, a module constant such as ``MTU``, ...) and every defaulted field
    of a ``@dataclass``.  ``callee`` is the name a call spells (the class for
    ``__init__`` and a dataclass); ``position`` is the index among a call's
    positional arguments (``None`` when keyword-only)."""
    for node, owner, key, callee in _functions(tree):
        arguments = node.args
        positional = arguments.posonlyargs + arguments.args
        defaults = dict(zip(positional[::-1], arguments.defaults[::-1]))
        defaults.update(zip(arguments.kwonlyargs, arguments.kw_defaults))
        order = _positional(node, owner)
        for arg, default in defaults.items():
            if default is not None:
                position = order.index(arg) if arg in order else None
                yield (f"{key}({arg.arg})", callee, arg.arg, position,
                       node.lineno, False)
    for node in ast.walk(tree):
        if _is_dataclass(node) and not node.record:
            fields = index.fields[node.name]
            own = len(fields) - len(_fields(node))
            for position, (name, defaulted, line) in enumerate(fields):
                if defaulted and position >= own:
                    yield (f"{node.name}({name})", node.name, name, position,
                           line, True)


def _calls(tree: ast.Module, index: _Index):
    """Every call in ``tree`` as a ``_Site``.  ``super()`` names the
    enclosing class's ancestors and ``cls`` the class; ``partial(f, ...)``
    calls ``f``; ``dataclasses.replace`` sets fields of the class of
    ``self``, else of every dataclass.  A call that hands ``dict(...)`` or a
    dict literal over together with a function
    (``SweepJob(func=spec_cell, kwargs=dict(...))``) calls it with the
    dict's keys; any other dict is a call of no known callee where its keys
    reach a ``**`` spread (``f(**{...})``, or a name bound to the dict that
    its scope spreads), and data, setting nothing, where they do not."""
    enclosing, scopes = _enclosing_classes(tree), collections.defaultdict(list)
    owner = {}                           # id(node) -> innermost function
    for function, _, key, callee in _functions(tree):
        kwarg = function.args.kwarg
        here = (key, callee, set(_parameters(function)), kwarg and kwarg.arg)
        for node in ast.walk(function):
            scopes[id(node)].append(here)
            owner[id(node)] = function

    def bundle(node):
        """``dict(...)`` and ``{...}`` as ``(args, keywords)``, or ``None``."""
        if isinstance(node, ast.Dict):
            return [], [(getattr(key, "value", None), value)
                        for key, value in zip(node.keys, node.values)
                        if key is None
                        or isinstance(getattr(key, "value", None), str)]
        if isinstance(node, ast.Call) and _named(node.func) == "dict":
            return node.args, [(kw.arg, kw.value) for kw in node.keywords]
        return None

    # What reaches a ``**`` spread: the spread expressions, then, to a fixed
    # point, the right-hand side of every binding (``=``, ``for``) of a name
    # that reaches one in the same scope.
    reaching, bindings = [], []
    for node in ast.walk(tree):
        scope = id(owner.get(id(node), tree))
        if isinstance(node, ast.Call):
            reaching += [(scope, kw.value) for kw in node.keywords
                         if kw.arg is None]
        elif isinstance(node, ast.Dict):
            reaching += [(scope, value) for key, value
                         in zip(node.keys, node.values) if key is None]
        elif isinstance(node, ast.Assign):
            bindings.append((scope, node.targets, node.value))
        elif isinstance(node, ast.For):
            bindings.append((scope, [node.target], node.iter))
    bindings = [(scope, {name.id for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name)}, value)
                for scope, targets, value in bindings]
    spread, names = set(), set()
    while reaching:
        scope, expression = reaching.pop()
        for node in ast.walk(expression):
            spread.add(id(node))
            if isinstance(node, ast.Name) and (scope, node.id) not in names:
                names.add((scope, node.id))
                reaching += [(scope, value) for where, bound, value in bindings
                             if where == scope and node.id in bound]

    handed = set()
    for node in ast.walk(tree):          # breadth first: a call before its
        if id(node) in handed:           # arguments
            continue
        where = scopes[id(node)]
        if bundle(node) is not None:
            if id(node) in spread:
                yield _Site(where, None, *bundle(node), None)
            continue
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = _named(func)
        cls = enclosing.get(id(node))
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Call)
                and _dotted(func.value.func) == "super"):
            callees = (index.ancestors(cls) if func.attr == "__init__"
                       else {func.attr})
        elif name == "partial" and args:
            func, args = args[0], args[1:]
            callees = index.targets(func)
        elif name == "replace" and args:
            callees = ({cls} | index.ancestors(cls)
                       if _dotted(args[0]) == "self" and cls
                       else set(index.fields))
            args = []
        elif name == "cls" and cls:
            callees = {cls} | index.ancestors(cls)
        else:
            callees = index.targets(func)
        keywords = [(kw.arg, kw.value) for kw in node.keywords]
        yield _Site(where, callees, args, keywords, func)
        values = node.args + [value for _, value in keywords]
        functions = [value for value in values
                     if isinstance(value, (ast.Name, ast.Attribute))
                     and _named(value) in index.signatures]
        for value in values:
            if functions and bundle(value) is not None:
                handed.add(id(value))
                yield _Site(where, set().union(*map(index.targets, functions)),
                            *bundle(value), None)


def _class_named(node, index: _Index):
    """The class an annotation names (``C``, ``mod.C``, ``Optional[C]``),
    if the scan knows it."""
    if isinstance(node, ast.Subscript) and _dotted(node.value).endswith(
            "Optional"):
        node = node.slice
    name = _named(node) if isinstance(node, (ast.Name, ast.Attribute)) else None
    return name if name in index.bases else None


def _typed_names(tree: ast.Module, index: _Index) -> dict:
    """``id(name node)`` -> class for every use of a name the scan can type
    in its function (or at module level): bound there once, by constructing
    a known class or annotated with one (an argument, or ``name: C = ...``)."""
    scopes = [node for node in ast.walk(tree) if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef))] + [tree]
    typed = {}
    for scope in scopes:
        nodes = list(ast.walk(scope))
        known, bound = {}, collections.Counter()
        arguments = getattr(scope, "args", None)
        for arg in (arguments.posonlyargs + arguments.args
                    + arguments.kwonlyargs) if arguments else ():
            bound[arg.arg] += 1
            if arg.annotation is not None:
                known[arg.arg] = _class_named(arg.annotation, index)
        for node in nodes:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound[node.id] += 1
            if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name):
                known[node.target.id] = _class_named(node.annotation, index)
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name)
                  and isinstance(node.value, ast.Call)):
                known[node.targets[0].id] = _class_named(node.value.func,
                                                         index)
        typed.update((id(node), known[node.id]) for node in nodes
                     if isinstance(node, ast.Name) and known.get(node.id)
                     and bound[node.id] <= 1)
    return typed


def _unset_switches(trees: dict) -> dict:
    """Defaulted parameters and dataclass fields of the ``src/`` files in
    ``trees`` (``{path: ast.Module}``) that no call in ``trees`` sets.

    A call sets a parameter of the callees ``_calls`` finds by keyword or at
    its position: keywords match by callee, never by bare name.  A call of
    no known callee sets its keywords everywhere.  Keywords a function takes
    into its own ``**kwargs`` reach the calls it spreads them into, hop by
    hop, and a string constant it was passed picks the callable of a
    ``TABLE[key]`` call (``spec_job(spec, "fairness", ...)`` reaches only
    ``fairness_summary``).  A ``**`` spread of any other mapping sets every
    parameter of a known callee (its keys are data), and a ``*`` spread
    every position.  ``name=name`` handing on the caller's own parameter
    sets the callee's only once that parameter is set (or has no default).
    A dataclass field is also set by an assignment to an attribute of its
    name on an object of its class: ``self.name`` in the class (or a
    subclass), or a local name the scan types by construction or annotation
    (``_typed_names``); or by ``setattr`` with a string or f-string naming
    it.  A record's fields (``_parse``) are no switches."""
    index = _Index(trees)
    sites = [site for tree in trees.values() for site in _calls(tree, index)]
    forwards = collections.defaultdict(list)
    for site in sites:
        spreads = {_dotted(value) for name, value in site.keywords
                   if name is None}
        for _, callee, params, kwarg in site.scopes:
            if kwarg in spreads:
                forwards[callee].append((params, site))
    by_callee, anywhere = set(), set()
    positional = collections.Counter()
    handed_on = []

    def passes(callees, names, keys, seen=frozenset()):
        if callees is None:
            anywhere.update(names)
            return
        by_callee.update((callee, name) for callee in callees
                         for name in names)
        for callee in callees - seen:
            for params, site in forwards[callee]:
                if names - params:
                    passes(index.targets(site.func, keys)
                           if keys and isinstance(site.func, (
                               ast.Subscript, ast.Call)) else site.callees,
                           names - params, site.keys(index, keys),
                           seen | callees)

    for site in sites:
        names = set()
        for name, value in site.keywords:
            scope = site.handed_on(name) if _dotted(value) == name else None
            if scope:
                handed_on.append((f"{scope[0]}({name})", site, name))
            elif name is not None:
                names.add(name)
            elif site.callees and all(
                    scope[3] != _dotted(value) for scope in site.scopes):
                names.add("*")          # data: every parameter
        passes(site.callees, names, site.keys(index, {}))
        spread = any(isinstance(arg, ast.Starred) for arg in site.args)
        for callee in site.callees or ():
            positional[callee] = max(positional[callee], float("inf")
                                     if spread else len(site.args))
    assigned, patterns = set(), []
    for tree in trees.values():
        enclosing, types = _enclosing_classes(tree), _typed_names(tree, index)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, ast.Store):
                cls = (enclosing.get(id(node))
                       if _dotted(node.value) == "self"
                       else types.get(id(node.value)))
                if cls:
                    assigned.update((owner, node.attr)
                                    for owner in {cls} | index.ancestors(cls))
            elif (_named(getattr(node, "func", None)) == "setattr"
                  and len(node.args) > 1 and isinstance(
                      node.args[1], (ast.Constant, ast.JoinedStr))):
                parts = getattr(node.args[1], "values", [node.args[1]])
                patterns.append(re.compile("".join(
                    re.escape(part.value) if isinstance(part, ast.Constant)
                    else r"\w+" for part in parts)))
    switches = [(path, switch) for path, tree in trees.items()
                if path.parts[0] == "src" for switch in _switches(tree, index)]
    while True:
        unset = {}
        for path, (key, callee, param, position, line, is_field) in switches:
            if not (param in anywhere or (callee, param) in by_callee
                    or (callee, "*") in by_callee
                    or (position is not None and positional[callee] > position)
                    or is_field and (
                        (callee, param) in assigned
                        or any(p.fullmatch(param) for p in patterns))):
                unset[key] = f"{path.as_posix()}:{line}"
        released = [entry for entry in handed_on if entry[0] not in unset]
        if not released:
            return unset
        handed_on = [entry for entry in handed_on if entry[0] in unset]
        for _, site, name in released:
            passes(site.callees, {name}, site.keys(index, {}))


@functools.cache
def _repo_unset_switches() -> dict:
    return _unset_switches(_caller_trees())


def test_no_unset_switch_in_src():
    """An option needs a non-test caller that wants a value other than its
    default; a switch only tests set keeps a second behaviour alive for
    nothing the repo runs, and a number only tests vary is a constant."""
    unset = {key: where for key, where in _repo_unset_switches().items()
             if key not in UNSET_SWITCH_ALLOWLIST}
    assert not unset, ("defaulted parameters no call outside tests/ sets — "
                       "make them constants (delete a switch with the code "
                       "it keeps), or allowlist them with the caller that "
                       "needs them: " + ", ".join(
                           f"{where} {key}" for key, where in sorted(
                               unset.items())))


def test_unset_switch_allowlist_has_no_stale_entries():
    assert set(UNSET_SWITCH_ALLOWLIST) <= set(_repo_unset_switches())


def _scan(source: str) -> set:
    """The unset switches of one synthetic ``src/`` module."""
    return set(_unset_switches(
        {Path("src/m.py"): _parse(textwrap.dedent(source))}))


def test_switch_scan_matches_keywords_by_callee():
    assert _scan("""
        def f(rtt=0.1): ...
        def g(rtt=0.1): ...
        f(rtt=0.2)
        """) == {"g(rtt)"}


def test_switch_scan_follows_kwargs_hand_ons():
    assert _scan("""
        class Spec:
            def __init__(self, rate=1.0, size=2): ...
        def pack(count=1, **kwargs):
            return Spec(**kwargs)
        pack(count=2, rate=3.0)
        """) == {"Spec(size)"}
    # Through a deferred job and a table of "module:function" targets.
    assert _scan("""
        SUMMARIES = {"a": "repro.m:summary_a", "b": "repro.m:summary_b"}
        def summary_a(built, t0=0.0, step=1): ...
        def summary_b(built, t0=0.0): ...
        def cell(summary, **args):
            return resolve_name(SUMMARIES[summary])(None, **args)
        def job(summary, **args):
            return Job(func=cell, kwargs=dict(summary=summary, **args))
        job("a", t0=1.0)
        """) == {"summary_a(step)", "summary_b(t0)"}


def test_switch_scan_lets_a_mapping_spread_reach_every_field():
    assert _scan("""
        @dataclass
        class Params:
            eta: float = 0.9
            delta: float = 0.1
        @dataclass
        class Other:
            eta: float = 0.9
        def load(data):
            return Params(**data)
        """) == {"Other(eta)"}


def test_switch_scan_skips_fields_assigned_after_construction():
    assert _scan("""
        @dataclass
        class Stats:
            runs: int
            hits: int = 0
            misses: int = 0
        def run():
            stats = Stats(1)
            stats.hits += 1
            return stats
        """) == {"Stats(misses)"}


def test_switch_scan_releases_a_hand_on_only_when_passed():
    assert _scan("""
        def inner(rtt=0.1): ...
        def outer(rtt=0.1):
            return inner(rtt=rtt)
        def leaf(bin_size=0.1): ...
        def entry(bin_size=0.5):
            return leaf(bin_size=bin_size)
        entry(bin_size=1.0)
        """) == {"outer(rtt)", "inner(rtt)"}


def test_switch_scan_counts_dict_keys_only_where_they_reach_a_spread():
    assert _scan("""
        def f(rtt=0.1, size=2, depth=3, step=4, rate=5): ...
        ROW = {"rtt": 0.2}
        def table():
            return [{"size": 3}]
        def call(kind):
            kwargs = dict(depth=4)
            name, extra = {"a": ("f", {"step": 1})}.get(kind)
            make(name)(**{"rate": 6}, **extra)
            return make(name)(**kwargs)
        """) == {"f(rtt)", "f(size)"}


def test_switch_scan_counts_a_store_only_on_an_object_it_can_type():
    source = """
        @dataclass
        class Spec:
            rtt: float = 0.1
            size: int = 2
            depth: int = 3
        @dataclass
        class Feedback:  # record: restamped per ACK
            rtt: float = 0.0
        def restamp(feedback):
            feedback.rtt = 0.2
        def grow(spec: Spec):
            spec.size = 4
        def build():
            spec = Spec()
            spec.depth = 5
            return spec
        """
    # ``feedback`` is untyped, so its store sets no field named rtt; the
    # annotated and the constructed ``spec`` set theirs.
    assert _scan(source) == {"Spec(rtt)"}
    assert _scan(source.replace("# record", "#")) == {
        "Spec(rtt)", "Feedback(rtt)"}


#: ``# Qdisc._push, inlined`` or ``# abc_paper.target_rate (Eq. 1), inlined``:
#: the name of the definition whose body the code below the comment inlines.
_INLINED = re.compile(r"([A-Za-z_][\w.]*)\s*(?:\([^()]*\))?,\s*inlined\b")


def _definitions(paths) -> set:
    """What an inline marker may name: ``name``, ``module.name``,
    ``Class.member`` and ``module.Class.member`` for every module-level
    definition and every member of a module-level class in ``paths``."""
    def named(node):
        return (_bound_names(node) | {getattr(node, "name", None)}) - {None}

    names = set()
    for path in paths:
        for node in ast.parse(path.read_text()).body:
            found = named(node)
            if isinstance(node, ast.ClassDef):
                found |= {f"{node.name}.{member}" for sub in node.body
                          for member in named(sub)}
            names |= found | {f"{path.stem}.{name}" for name in found}
    return names


def test_inline_markers_name_existing_definitions():
    """Every ``# <Name>, inlined`` comment in ``src/`` names a definition in
    ``src/`` or in ``tests/reference/``: a marker whose original was deleted
    or renamed points at nothing a reader can check the inline against."""
    sources = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    defined = _definitions(
        sources + sorted((REPO_ROOT / "tests" / "reference").glob("*.py")))
    stale = []
    for path in sources:
        with path.open() as handle:
            for token in tokenize.generate_tokens(handle.readline):
                if token.type != tokenize.COMMENT:
                    continue
                names = _INLINED.findall(token.string)
                if len(names) != token.string.count(", inlined"):
                    names.append(token.string)
                stale += [f"{path.relative_to(REPO_ROOT)}:{token.start[0]} "
                          f"{name}" for name in names if name not in defined]
    assert not stale, "inline markers naming nothing: " + ", ".join(stale)


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
