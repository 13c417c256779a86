"""The knob table (:mod:`repro.config`), walked field by field.

``CASES`` has one entry per :class:`RuntimeConfig` field: the spellings the
environment variable accepts (and what each resolves to), the values it
rejects, and the API arguments that override it.  ``test_knob`` checks, for
every field: unset → the documented default; each accepted spelling; each
rejected value raises naming the variable; argument beats environment beats
default.  Then one regression test per behaviour fix of the PR that
introduced the module, and the grep that keeps the table the only place a
knob can be declared or the environment read.
"""

from __future__ import annotations

import dataclasses
import os
import re
from pathlib import Path

import pytest

from repro.config import (KNOBS, RuntimeConfig, environment_knobs, resolve,
                          resolve_seeds)
from repro.obs.manifest import executor_record, provenance
from repro.obs.progress import resolve_progress, stderr_reporter
from repro.runtime.executor import SweepExecutor

SRC = Path(__file__).resolve().parents[1] / "src"
CPUS = os.cpu_count() or 1
HOME = Path("~").expanduser()


def sink(progress):
    """A progress callback (any callable is passed through)."""


#: field → accepted: (environment spelling, resolved value) …; rejected:
#: environment spellings that raise; arguments: (API argument, resolved
#: value) …, each tried against the first accepted spelling in the
#: environment; bad_arguments: API arguments that raise.
CASES = {
    "jobs": dict(
        accepted=[("4", 4), ("1", 1), (" 3 ", 3), ("0", CPUS),
                  ("auto", CPUS), ("AUTO", CPUS)],
        rejected=["banana", "-1", "2.5"],
        arguments=[(2, 2), ("2", 2), (0, CPUS), ("auto", CPUS)],
        bad_arguments=[-1, "many"]),
    "seeds": dict(
        accepted=[("4,5,6", (4, 5, 6)), ("7 8", (7, 8)), ("3", (3,)),
                  (" 1, 2 ", (1, 2))],
        rejected=["banana", "1,x", ","],
        arguments=[(3, (3,)), ([1, 2], (1, 2)), ([9], (9,)), ("5 6", (5, 6))],
        bad_arguments=[[], ["x"]]),
    "timeout": dict(
        accepted=[("60", 60.0), ("0.5", 0.5), ("0", None)],
        rejected=["soon", "-1", "nan"],
        arguments=[(5, 5.0), (2.5, 2.5), ("7", 7.0), (0, None)],
        bad_arguments=[-1, "never"]),
    "retries": dict(
        accepted=[("3", 3), ("0", 0)],
        rejected=["many", "-1", "1.5"],
        arguments=[(1, 1), ("2", 2), (0, 0)],
        bad_arguments=[-1]),
    "failure_policy": dict(
        accepted=[("salvage", "salvage"), ("strict", "strict"),
                  (" Salvage ", "salvage")],
        rejected=["lenient"],
        arguments=[("strict", "strict"), ("SALVAGE", "salvage")],
        bad_arguments=["ignore"]),
    "cache_dir": dict(
        accepted=[("/tmp/c", Path("/tmp/c")), ("~/c", HOME / "c")],
        rejected=[],
        arguments=[("/tmp/d", Path("/tmp/d")), (Path("e"), Path("e"))],
        bad_arguments=[42]),
    "journal": dict(
        accepted=[("/tmp/j", Path("/tmp/j")), ("~/j", HOME / "j"),
                  ("1", True), ("yes", True), ("ON", True),
                  ("0", None), ("false", None), ("off", None)],
        rejected=[],
        arguments=[(False, None), ("/tmp/k", Path("/tmp/k")),
                   (Path("k"), Path("k"))],
        bad_arguments=[42]),
    "progress": dict(
        accepted=[("1", True), ("true", True), ("Yes", True), ("on", True),
                  ("0", False), ("no", False), ("banana", False)],
        rejected=[],
        arguments=[(False, False), (True, True), (sink, sink)],
        bad_arguments=[42]),
    "telemetry": dict(
        accepted=[("1", True), ("TRUE", True), ("0", False), ("2", False)],
        rejected=[],
        arguments=[(False, False), (True, True)],
        bad_arguments=[]),
    "run_dir": dict(
        accepted=[("runs", Path("runs")), ("~/runs", HOME / "runs")],
        rejected=[],
        arguments=[("/tmp/r", Path("/tmp/r"))],
        bad_arguments=[42]),
}


@pytest.fixture
def clean_env(monkeypatch):
    for name in environment_knobs():
        monkeypatch.delenv(name)
    return monkeypatch


def test_every_knob_has_cases_and_is_fully_declared():
    assert list(CASES) == list(KNOBS) and len(KNOBS) == 10
    envs = [knob.metadata["env"] for knob in KNOBS.values()]
    assert len(set(envs)) == len(envs)
    for knob in KNOBS.values():
        assert re.fullmatch(r"REPRO_[A-Z_]+", knob.metadata["env"])
        assert callable(knob.metadata["parse"]) and knob.metadata["doc"]
    assert RuntimeConfig() == RuntimeConfig(
        **{name: knob.default for name, knob in KNOBS.items()})


@pytest.mark.parametrize("name", list(KNOBS))
def test_knob(name, clean_env):
    knob, case = KNOBS[name], CASES[name]
    env = knob.metadata["env"]

    # Unset, empty or whitespace-only: the documented default.
    assert resolve(name) == knob.default
    assert RuntimeConfig.from_env() == RuntimeConfig()
    for blank in ("", "   "):
        clean_env.setenv(env, blank)
        assert resolve(name) == knob.default
        assert getattr(RuntimeConfig.from_env(), name) == knob.default

    # Every accepted spelling, read live and through from_env alike.
    for raw, value in case["accepted"]:
        clean_env.setenv(env, raw)
        assert resolve(name) == value, raw
        assert getattr(RuntimeConfig.from_env(), name) == value, raw

    # Every rejected value raises, naming the variable.
    for raw in case["rejected"]:
        clean_env.setenv(env, raw)
        with pytest.raises(ValueError, match=env):
            resolve(name)
        with pytest.raises(ValueError, match=env):
            RuntimeConfig.from_env()

    # Argument beats environment beats default — one parser for both.
    raw, from_environment = case["accepted"][0]
    for environment, inherited in ((raw, from_environment),
                                   (None, knob.default)):
        if environment is None:
            clean_env.delenv(env)
        else:
            clean_env.setenv(env, environment)
        config = RuntimeConfig.from_env()
        assert resolve(name, None) == inherited
        assert getattr(config.overlay(**{name: None}), name) == inherited
        for argument, value in case["arguments"]:
            assert resolve(name, argument) == value, argument
            assert getattr(config.overlay(**{name: argument}), name) == value
        for argument in case["bad_arguments"]:
            with pytest.raises((TypeError, ValueError), match=env):
                resolve(name, argument)
            with pytest.raises((TypeError, ValueError), match=env):
                config.overlay(**{name: argument})


def test_overlay_rejects_a_name_that_is_not_a_knob():
    with pytest.raises(KeyError):
        RuntimeConfig().overlay(cache_salt="x")


def test_resolve_seeds_is_the_seeds_knob(clean_env):
    assert resolve_seeds() is None
    clean_env.setenv("REPRO_SEEDS", "4,5,6")
    assert resolve_seeds() == (4, 5, 6)
    assert resolve_seeds([9]) == (9,)


def test_a_repeated_seed_argument_is_rejected(clean_env):
    """``seeds=[1, 1]`` would run one sample twice and report n=2, ±0."""
    with pytest.raises(ValueError, match="REPRO_SEEDS: names seed 1 twice"):
        resolve_seeds([1, 2, 1])


def test_a_repeated_seed_in_the_environment_is_rejected(clean_env):
    clean_env.setenv("REPRO_SEEDS", "3,3")
    with pytest.raises(ValueError, match="REPRO_SEEDS: names seed 3 twice"):
        resolve_seeds()


def test_progress_knob_selects_the_reporter(clean_env):
    """``resolve_progress`` maps the resolved knob onto a callback."""
    assert resolve_progress(resolve("progress")) is None
    assert resolve_progress(resolve("progress", False)) is None
    assert resolve_progress(resolve("progress", True)) is stderr_reporter
    assert resolve_progress(resolve("progress", sink)) is sink
    clean_env.setenv("REPRO_PROGRESS", "1")
    assert resolve_progress(resolve("progress")) is stderr_reporter
    assert resolve_progress(resolve("progress", False)) is None
    assert SweepExecutor(progress=False).config.progress is False
    assert SweepExecutor().config.progress is True  # read at construction
    clean_env.delenv("REPRO_PROGRESS")
    assert SweepExecutor().config.progress is False


def test_journal_directory_rule(clean_env, tmp_path):
    """off / a path / on = the directory the environment names, else
    ``<run dir>/journal``, else an error."""
    def journal_dir(argument=None):
        return SweepExecutor(jobs=1, journal=argument).config.journal_dir

    assert journal_dir() is None
    assert journal_dir(tmp_path) == tmp_path
    with pytest.raises(ValueError, match="REPRO_RUN_DIR"):
        journal_dir(True)
    clean_env.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
    assert journal_dir() is None
    assert journal_dir(True) == tmp_path / "runs" / "journal"
    clean_env.setenv("REPRO_JOURNAL", "1")
    assert journal_dir() == tmp_path / "runs" / "journal"
    assert journal_dir(False) is None
    clean_env.setenv("REPRO_JOURNAL", "0")
    assert journal_dir() is None
    assert journal_dir(True) == tmp_path / "runs" / "journal"
    clean_env.setenv("REPRO_JOURNAL", str(tmp_path / "j"))
    assert journal_dir() == tmp_path / "j"
    assert journal_dir(True) == tmp_path / "j"      # "on" keeps the env's dir
    assert journal_dir(tmp_path / "k") == tmp_path / "k"
    clean_env.delenv("REPRO_RUN_DIR")
    clean_env.setenv("REPRO_JOURNAL", "yes")
    with pytest.raises(ValueError, match="REPRO_JOURNAL"):
        journal_dir()


def test_executor_config_is_its_only_configuration(clean_env, tmp_path):
    clean_env.setenv("REPRO_JOB_RETRIES", "2")
    clean_env.setenv("REPRO_FAILURE_POLICY", "salvage")
    executor = SweepExecutor(jobs=3, timeout="5", cache_dir=tmp_path)
    config = executor.config
    assert isinstance(config, RuntimeConfig)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.jobs = 1
    assert (config.jobs, config.timeout, config.retries,
            config.failure_policy, config.journal_dir,
            config.cache_dir) == (3, 5.0, 2, "salvage", None, tmp_path)
    for mirror in ("workers", "progress", "timeout", "retries", "backoff",
                   "failure_policy", "journal_dir"):
        assert not hasattr(executor, mirror), mirror
    assert executor.cache.root == tmp_path


# ------------------------------------------------- the behaviour fixes
def test_empty_jobs_means_unset_not_every_cpu(clean_env):
    clean_env.setattr(os, "cpu_count", lambda: 8)
    for blank in ("", "  "):
        clean_env.setenv("REPRO_JOBS", blank)
        assert SweepExecutor().config.jobs == 1


def test_manifest_records_what_the_sweep_used(clean_env, tmp_path):
    clean_env.setenv("REPRO_JOBS", "1")
    executor = SweepExecutor(jobs=2, retries=3, timeout=60, journal=tmp_path,
                             progress=sink)
    used = executor_record(executor)["config"]
    assert used == executor.config.to_jsonable()
    assert list(used) == list(KNOBS)
    assert (used["jobs"], used["retries"], used["timeout"]) == (2, 3, 60.0)
    assert used["journal"] == str(tmp_path)
    assert used["progress"] is True and used["seeds"] is None
    # provenance()["knobs"] keeps its shape: the raw strings that were set.
    assert provenance()["knobs"] == {"REPRO_JOBS": "1"}
    clean_env.setenv("REPRO_SEEDS", "1,2")
    clean_env.setenv("REPRO_NOT_A_KNOB", "x")
    assert provenance()["knobs"] == {"REPRO_JOBS": "1",
                                     "REPRO_NOT_A_KNOB": "x",
                                     "REPRO_SEEDS": "1,2"}
    assert SweepExecutor().config.to_jsonable()["seeds"] == [1, 2]


# ------------------------------------------------------------------ the grep
def test_only_the_config_module_reads_the_environment():
    reads = re.compile(r"os\.environ|os\.getenv")
    sites = {}
    for path in sorted(SRC.rglob("*.py")):
        count = len(reads.findall(path.read_text()))
        if count:
            sites[path.relative_to(SRC).as_posix()] = count
    assert set(sites) == {"repro/config.py"}, sites
    assert sites["repro/config.py"] <= 2


def test_the_executor_owns_its_workers():
    """``multiprocessing.Pool`` hides which process runs which attempt and
    whether it is alive; the side channels and private attributes that
    reconstructed both must not come back."""
    banned = re.compile(
        r"multiprocessing\.Pool|SimpleQueue|\._pool\._|\._cache\b")
    sites = {path.relative_to(SRC).as_posix(): hits
             for path in sorted(SRC.rglob("*.py"))
             if (hits := banned.findall(path.read_text()))}
    assert not sites


def test_every_knob_named_in_src_is_a_field_of_the_table():
    declared = {knob.metadata["env"] for knob in KNOBS.values()}
    strays = {}
    for path in sorted(SRC.rglob("*.py")):
        unknown = set(re.findall(r"REPRO_[A-Z_]+", path.read_text())) - declared
        if unknown:
            strays[path.relative_to(SRC).as_posix()] = sorted(unknown)
    assert not strays, f"knobs named in src/ but not declared: {strays}"
    config_source = (SRC / "repro" / "config.py").read_text()
    for env in declared:                      # each declared exactly once
        assert config_source.count(f'"{env}"') == 1, env
