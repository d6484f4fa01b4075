"""Tests for the whole-program lint layer (SIM6xx) and its satellites.

The seeded-bug corpus lives in ``tests/lint_fixtures/<rule>/``: each
directory is a miniature project whose relative paths become the
virtual lint paths.  Every SIM6xx rule must fire on its seeded bug and
stay quiet on the sanctioned idiom sitting next to it.
"""

from __future__ import annotations

import json
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (build_project, build_project_from_sources,
                        expand_suppressions, lint_paths, lint_sources,
                        lint_tree, parse_suppressions, register_rule,
                        registered_rules, render_rule_list,
                        run_project_rules)
from repro.lint.framework import LintCache, default_lint_root
from repro.lint.project import ProjectRule
from repro.lint.symbols import extract_module

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def load_fixture(name: str) -> dict:
    root = FIXTURES / name
    return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
            for p in sorted(root.rglob("*.py"))}


def run_fixture(name: str, code: str):
    project = build_project_from_sources(load_fixture(name))
    return run_project_rules(project, only=[code])


# ---------------------------------------------------------------------------
# SIM601 — RNG provenance


def test_sim601_fires_on_laundered_raw_rng():
    result = run_fixture("sim601", "SIM601")
    assert result.findings, "seeded raw-RNG flow must be flagged"
    assert all(f.code == "SIM601" for f in result.findings)
    assert any(f.path == "app/user.py" for f in result.findings)
    # the sanctioned RngRegistry.stream() path stays quiet
    assert all("export" not in f.message for f in result.findings)


def test_sim601_quiet_in_rng_home_and_on_streams():
    result = run_fixture("sim601", "SIM601")
    assert all(f.path != "repro/sim/rng.py" for f in result.findings), \
        "raw random is sanctioned inside repro/sim/rng.py"
    # exactly the one seeded sink, not the two stream-based ones
    assert len(result.findings) == 1


# ---------------------------------------------------------------------------
# SIM602 — cycle-ledger flow


def test_sim602_flags_dead_field_and_orphan_charge():
    result = run_fixture("sim602", "SIM602")
    messages = [f.message for f in result.findings]
    assert any("dead_knob_cycles" in m for m in messages)
    assert any("_orphan_path" in m for m in messages)
    assert len(result.findings) == 2


def test_sim602_credits_caller_charged_helpers_and_delays():
    result = run_fixture("sim602", "SIM602")
    messages = " ".join(f.message for f in result.findings)
    assert "helper_cycles" not in messages, \
        "field charged by the reader's caller is live"
    assert "window_delay_ns" not in messages, \
        "field consumed as a simulated-time delay is live"
    assert "used_cycles" not in messages


def test_sim602_flags_field_no_consumer_reads():
    # A CostModel field nothing reads cannot reach a charge, so the
    # ledger-flow rule covers the by-name dead-field check too.
    files = {
        "repro/iomodels/costs.py":
            "from dataclasses import dataclass\n"
            "@dataclass\n"
            "class CostModel:\n"
            "    used_cycles: int = 1\n"
            "    dead_cycles: int = 2\n",
        "repro/hw/consumer.py":
            "def charge(core, costs):\n"
            "    core.execute(costs.used_cycles)\n",
    }
    result = run_project_rules(build_project_from_sources(files),
                               only=["SIM602"])
    assert [(f.path, f.line) for f in result.findings] == \
        [("repro/iomodels/costs.py", 5)]
    assert "dead_cycles" in result.findings[0].message


def test_sim602_dead_field_anchored_at_definition():
    result = run_fixture("sim602", "SIM602")
    dead = [f for f in result.findings if "dead_knob_cycles" in f.message]
    assert dead and dead[0].path == "repro/iomodels/costs.py"
    assert dead[0].line > 1


# ---------------------------------------------------------------------------
# The sim603 corpus: SIM302's straight-line case, which a plain lint checks
# (it was once the --project rule SIM603)


def test_sim603_fires_on_lambda_and_nested_def():
    result = lint_tree(paths=[FIXTURES / "sim603"], use_cache=False)
    assert [(f.code, f.line) for f in result.findings] == \
        [("SIM302", 9), ("SIM302", 27)]
    assert all("after the subscription point" in f.message
               for f in result.findings)


def test_sim603_quiet_on_default_binding_idiom():
    result = lint_tree(paths=[FIXTURES / "sim603"], use_cache=False)
    source = (FIXTURES / "sim603/app/callbacks.py").read_text()
    ok_line = next(i for i, text in enumerate(source.splitlines(), 1)
                   if "lambda t=target" in text)
    assert result.findings
    assert all(f.line != ok_line for f in result.findings)


# ---------------------------------------------------------------------------
# SIM604 — telemetry reachability


def test_sim604_flags_orphan_hook_only():
    result = run_fixture("sim604", "SIM604")
    assert len(result.findings) == 1
    assert "OrphanModel" in result.findings[0].message


def test_sim604_follows_higher_order_builder_indirection():
    result = run_fixture("sim604", "SIM604")
    assert all("LiveModel" not in f.message for f in result.findings), \
        "factory passed by name through consolidated_per_host is reachable"


def test_sim604_follows_classmethod_factory_to_subclasses():
    result = run_fixture("sim604", "SIM604")
    assert all("Family" not in f.message for f in result.findings), \
        "cls(...) in a classmethod builds the base and its subclasses"


# ---------------------------------------------------------------------------
# Whole-tree invariants


def test_real_tree_project_clean():
    result = lint_tree(project=True, use_cache=False)
    assert result.clean, "\n".join(
        f.format() for f in result.all_findings())


def test_project_rule_registry_is_sim6xx():
    # One registry: the SIM6xx codes in it are exactly the ProjectRules,
    # and --list-rules shows every code.
    registry = registered_rules()
    sim6xx = sorted(code for code in registry if code.startswith("SIM6"))
    assert sim6xx == ["SIM601", "SIM602", "SIM604"]
    assert all(issubclass(registry[code], ProjectRule) == (code in sim6xx)
               for code in registry)
    listing = render_rule_list()
    assert all(code in listing for code in registry)


def test_every_project_rule_has_a_fixture_corpus():
    for code, cls in registered_rules().items():
        if not issubclass(cls, ProjectRule):
            continue
        fixture_dir = FIXTURES / code.lower()
        assert fixture_dir.is_dir(), f"missing fixture corpus for {code}"
        result = run_fixture(code.lower(), code)
        assert result.findings, f"{code} does not fire on its corpus"


# ---------------------------------------------------------------------------
# Incremental cache


def test_cache_warm_run_equivalent_and_all_hits(tmp_path):
    cold = build_project(cache_dir=tmp_path)
    warm = build_project(cache_dir=tmp_path)
    assert cold.cache_misses == len(cold.summaries)
    assert warm.cache_hits == len(warm.summaries)
    assert warm.cache_misses == 0
    cold_result = run_project_rules(cold)
    warm_result = run_project_rules(warm)
    assert cold_result.findings == warm_result.findings
    assert sorted(cold.summaries) == sorted(warm.summaries)
    assert [p.name for p in tmp_path.iterdir()] == ["lint.pkl"]


def _count_parses(monkeypatch) -> list:
    import ast

    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    return parsed


def test_cold_project_lint_parses_each_file_once(monkeypatch):
    # lint --project: the per-file rules and the symbol summaries share
    # one parse per file.
    parsed = _count_parses(monkeypatch)
    result = lint_tree(project=True, use_cache=False)
    files = sorted((default_lint_root() / "repro").rglob("*.py"))
    assert result.files_checked == len(files)
    assert sorted(parsed) == sorted(set(parsed))
    assert len(parsed) == len(files)


def test_cache_survives_corrupt_entries(tmp_path):
    # A truncated cache file is an empty cache, and the run rewrites it.
    build_project(cache_dir=tmp_path)
    cache_file = tmp_path / "lint.pkl"
    whole = cache_file.read_bytes()
    cache_file.write_bytes(whole[:len(whole) // 2])
    again = build_project(cache_dir=tmp_path)
    assert again.cache_hits == 0
    assert again.cache_misses == len(again.summaries)
    assert cache_file.read_bytes() != whole[:len(whole) // 2]
    assert build_project(cache_dir=tmp_path).cache_misses == 0
    cache_file.write_bytes(b"not a pickle")
    assert build_project(cache_dir=tmp_path).cache_hits == 0


# A finding, a suppressed finding and a file that does not parse.
CACHE_TREE = {
    "repro/sim/clock.py": "import time\n\ndef now():\n"
                          "    return time.time()\n",
    "repro/sim/quiet.py": "import time\n\ndef now():\n"
                          "    return time.time()  # simlint: disable=SIM101\n",
    "repro/broken.py": "def f(:\n    pass\n",
}


def _write_tree(root: Path, files: dict) -> Path:
    for rel, source in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(source, encoding="utf-8")
    return root


def test_cold_warm_and_uncached_lints_agree(tmp_path):
    from repro.lint import render_json, render_text

    root = _write_tree(tmp_path / "src", CACHE_TREE)
    cache_dir = tmp_path / "cache"

    def both(use_cache):
        per_file = lint_paths(root=root, use_cache=use_cache,
                              cache_dir=cache_dir)
        project = run_project_rules(build_project(
            root=root, use_cache=use_cache, cache_dir=cache_dir))
        return per_file, project

    runs = [both(True), both(True), both(False)]
    per_file, project = runs[0]
    assert [f.code for f in per_file.findings] == ["SIM101"]
    assert per_file.suppressed == 1
    assert [f.path for f in per_file.parse_errors] == ["repro/broken.py"]
    assert project.parse_errors == per_file.parse_errors
    for result in (per_file, project):
        text, as_json = render_text(result), render_json(result)
        for other in runs[1:]:
            same = other[0] if result is per_file else other[1]
            assert same == result
            assert render_text(same) == text
            assert render_json(same) == as_json


def _count_rule_runs(monkeypatch) -> list:
    runs = []
    for code, cls in registered_rules().items():
        if issubclass(cls, ProjectRule):
            def counting_run(self, project, real=cls.run, code=code):
                runs.append(code)
                return real(self, project)
            monkeypatch.setattr(cls, "run", counting_run)
    return runs


PROJECT_CODES = sorted(code for code, cls in registered_rules().items()
                       if issubclass(cls, ProjectRule))


def test_warm_runs_parse_nothing(tmp_path, monkeypatch):
    # The lint_tree benchmark's cycle from an empty cache: three `lint`
    # ops, then two `lint --project`.  The first `lint` parses each file
    # once and summarizes it from that parse; the first `--project` runs
    # each SIM6xx rule once; every op prints what an uncached run prints.
    from repro.lint import render_json, render_text

    uncached = {project: lint_tree(project=project, use_cache=False)
                for project in (False, True)}
    files = sorted(path.relative_to(default_lint_root()).as_posix()
                   for path in (default_lint_root() / "repro").rglob("*.py"))
    parsed = _count_parses(monkeypatch)
    runs = _count_rule_runs(monkeypatch)
    for op, project in enumerate([False] * 3 + [True] * 2):
        result = lint_tree(project=project, cache_dir=tmp_path)
        assert render_text(result) == render_text(uncached[project])
        assert render_json(result) == render_json(uncached[project])
        assert sorted(parsed) == (files if op == 0 else [])
        assert sorted(runs) == (PROJECT_CODES if op == 3 else [])
        parsed.clear()
        runs.clear()


def test_cache_entry_keyed_by_path_and_source(tmp_path):
    # SIM303 exempts the kernel: one source, two paths, two verdicts.
    source = "def drain(env):\n    return env._heap\n"
    root = _write_tree(tmp_path / "src", {"repro/sim/drain.py": source,
                                          "repro/cluster/drain.py": source})
    for _ in range(2):
        result = lint_paths(root=root, cache_dir=tmp_path / "cache")
        assert [(f.path, f.code) for f in result.findings] == \
            [("repro/cluster/drain.py", "SIM303")]
    cache = LintCache(tmp_path / "cache")
    assert sorted(cache.blobs) == ["repro/cluster/drain.py",
                                   "repro/sim/drain.py"]


def test_changed_model_registry_invalidates_cache(tmp_path, monkeypatch):
    import repro.iomodels as iomodels

    root = _write_tree(tmp_path / "src", {
        "repro/experiments/pair.py": 'MODELS = ("alpha", "beta")\n'})
    assert lint_paths(root=root, cache_dir=tmp_path).clean
    real = iomodels.model_names()
    monkeypatch.setattr(iomodels, "model_names",
                        lambda: tuple(real) + ("alpha", "beta"))
    result = lint_paths(root=root, cache_dir=tmp_path)
    assert [f.code for f in result.findings] == ["SIM501"]


def test_project_lint_of_listed_paths_keeps_their_entries(tmp_path,
                                                         monkeypatch):
    # The project pass and lint_paths each write the cache; neither write
    # may drop what the other stored.
    lint_tree(paths=[FIXTURES], project=True, cache_dir=tmp_path)
    parsed = _count_parses(monkeypatch)
    runs = _count_rule_runs(monkeypatch)
    lint_tree(paths=[FIXTURES], project=True, cache_dir=tmp_path)
    assert parsed == [] and runs == []


def test_only_runs_store_complete_entries(tmp_path, monkeypatch):
    # --only filters findings; the walk, and so the stored entry, is
    # every rule's, with the summary of each file under repro/.
    uncached = lint_tree(project=True, use_cache=False)
    lint_tree(only=["SIM101"], cache_dir=tmp_path)
    parts = LintCache(tmp_path).blobs.values()
    assert parts and all(summary is not None for _, _, summary in parts)
    parsed = _count_parses(monkeypatch)
    assert lint_tree(project=True, cache_dir=tmp_path) == uncached
    assert parsed == []


@pytest.fixture(scope="module")
def full_runs(tmp_path_factory):
    """Each tree the --only tests lint, with its uncached full run."""
    broken = _write_tree(tmp_path_factory.mktemp("tree"), CACHE_TREE)
    return [(paths, lint_tree(paths=paths, project=True, use_cache=False))
            for paths in (None, [FIXTURES], [broken])]


@pytest.mark.parametrize("code", sorted(registered_rules()))
def test_only_filters_the_full_run_by_code(code, full_runs, tmp_path):
    # Cold (for each tree's own files), warm and uncached: the full run's
    # findings of that code and its parse errors, with one suppressed count.
    for paths, full in full_runs:
        runs = [lint_tree(paths=paths, only=[code], cache_dir=tmp_path),
                lint_tree(paths=paths, only=[code], cache_dir=tmp_path),
                lint_tree(paths=paths, only=[code], use_cache=False)]
        for result in runs:
            assert result.findings == [f for f in full.findings
                                       if f.code == code]
            assert result.parse_errors == full.parse_errors
            assert result.suppressed == runs[0].suppressed


def test_only_runs_share_out_the_suppressed_count(full_runs, tmp_path):
    for paths, full in full_runs:
        assert full.suppressed == sum(
            lint_tree(paths=paths, only=[code], cache_dir=tmp_path).suppressed
            for code in registered_rules())
    # The last tree has both, so neither check above is vacuous.
    assert full.parse_errors and full.suppressed


# ---------------------------------------------------------------------------
# The stored project result


# CACHE_TREE plus the SIM602 corpus: two findings, in two files.
PROJECT_TREE = {**CACHE_TREE, **load_fixture("sim602")}


def test_project_result_follows_the_files_under_repro(tmp_path, monkeypatch):
    root = _write_tree(tmp_path / "src", {
        **PROJECT_TREE, "tools/gen.py": "import time\nT = time.time()\n"})
    runs = _count_rule_runs(monkeypatch)

    def project(use_cache=True):
        return run_project_rules(build_project(
            root=root, use_cache=use_cache, cache_dir=tmp_path / "cache"))

    first = project()
    assert [f.code for f in first.findings] == ["SIM602", "SIM602"]
    assert sorted(runs) == PROJECT_CODES
    runs.clear()
    assert project() == first and runs == []
    # A file outside repro/ is no input of the project rules.
    (root / "tools" / "gen.py").write_text("# edited\nimport time\n")
    lint_paths([root / "tools"], root=root, cache_dir=tmp_path / "cache")
    assert project() == first and runs == []
    # A comment above the findings moves them down a line.
    for finding in first.findings:
        edited = root / finding.path
        edited.write_text("# edited\n" + edited.read_text())
    edited = project()
    assert sorted(runs) == PROJECT_CODES
    assert edited == project(use_cache=False)
    assert [f.line for f in edited.findings] == \
        [f.line + 1 for f in first.findings]


def test_bad_project_entry_is_a_miss_and_rewritten(tmp_path, monkeypatch):
    root = _write_tree(tmp_path / "src", PROJECT_TREE)
    cache_dir = tmp_path / "cache"
    expected = run_project_rules(build_project(root=root, use_cache=False))
    assert run_project_rules(build_project(root=root, cache_dir=cache_dir)) \
        == expected
    good = LintCache(cache_dir).project
    assert good is not None
    runs = _count_rule_runs(monkeypatch)
    for bad in (good[:len(good) // 2], pickle.dumps("a foreign entry"),
                pickle.dumps(("another key", []))):
        cache = LintCache(cache_dir)
        cache.project, cache.dirty = bad, True
        cache.save()
        runs.clear()
        assert run_project_rules(build_project(
            root=root, cache_dir=cache_dir)) == expected
        assert sorted(runs) == PROJECT_CODES
        assert LintCache(cache_dir).project == good


def test_warm_lint_unpickles_no_summary(tmp_path, monkeypatch):
    from repro.lint.symbols import ModuleSummary

    lint_tree(project=True, cache_dir=tmp_path)
    loaded = []

    def counting_setstate(self, state):
        loaded.append(state["path"])
        self.__dict__.update(state)

    monkeypatch.setattr(ModuleSummary, "__setstate__", counting_setstate,
                        raising=False)
    lint_tree(cache_dir=tmp_path)
    assert loaded == []
    lint_tree(project=True, cache_dir=tmp_path)
    assert len(loaded) == len(list((default_lint_root() / "repro")
                                   .rglob("*.py")))


# ---------------------------------------------------------------------------
# Satellite: statement-span suppressions


def test_suppression_covers_continuation_lines():
    # Finding anchored on line 3 (the tuple contents), suppression
    # comment on line 2 (the statement's first line): pre-fix this
    # suppression silently failed.
    source = (
        "MODELS = (  # simlint: disable=SIM501\n"
        '    "elvis",\n'
        '    "vrio",\n'
        '    "baseline",\n'
        ")\n"
    )
    result = lint_sources({"repro/experiments/demo.py": source},
                          only=["SIM501"])
    assert not result.findings
    assert result.suppressed >= 1


def test_suppression_on_last_line_covers_whole_statement():
    source = (
        "MODELS = [\n"
        '    ("elvis", "vrio", "baseline")\n'
        "    ]  # simlint: disable=SIM501\n"
    )
    result = lint_sources({"repro/experiments/demo.py": source},
                          only=["SIM501"])
    assert not result.findings
    assert result.suppressed >= 1


def test_suppression_on_compound_header_does_not_blanket_body():
    import ast
    source = (
        "def f():  # simlint: disable=SIM101\n"
        "    import time\n"
        "    return time.time()\n"
    )
    tree = ast.parse(source)
    expanded = expand_suppressions(tree, parse_suppressions(source))
    assert 1 in expanded
    assert 3 not in expanded, \
        "a suppression on the def line must not silence the body"


def test_fig16_suppression_sites_still_covered():
    # Regression anchor: the two multi-line comprehensions in the
    # consolidation experiments carry inline SIM501 suppressions; the
    # span expansion must keep them effective (tree stays clean).
    path = "repro/experiments/consolidation_experiments.py"
    source = (default_lint_root() / path).read_text(encoding="utf-8")
    assert "simlint: disable=SIM501" in source
    result = lint_sources({path: source}, only=["SIM501"])
    assert not result.findings
    assert result.suppressed >= 2


# ---------------------------------------------------------------------------
# Satellite: framework edge cases


def test_parse_error_recovery_match_syntax():
    # ``match`` parses on 3.10+ (our runtime) but is a syntax error on
    # the 3.9 floor the project targets; either way the framework must
    # recover and keep linting the other files.
    match_source = (
        "def dispatch(kind):\n"
        "    match kind:\n"
        "        case 'a':\n"
        "            return 1\n"
        "        case _:\n"
        "            return 2\n"
    )
    files = {
        "repro/new_syntax.py": match_source,
        "repro/broken.py": "def f(:\n",
        "repro/fine.py": "import time\nt = time.time()\n",
    }
    result = lint_sources(files, only=["SIM101"])
    bad_paths = {f.path for f in result.parse_errors}
    assert "repro/broken.py" in bad_paths
    if sys.version_info >= (3, 10):
        assert "repro/new_syntax.py" not in bad_paths
    else:  # pragma: no cover - 3.9 interpreter
        assert "repro/new_syntax.py" in bad_paths
    # the parse failures must not stop the healthy file being linted
    assert any(f.path == "repro/fine.py" for f in result.findings)

    summary = extract_module("repro/broken.py", "def f(:\n")
    assert summary.parse_error is not None
    project = build_project_from_sources(files)
    project_result = run_project_rules(project)
    assert any(f.code == "SIM000" for f in project_result.parse_errors)


def test_duplicate_rule_registration_rejected():
    from repro.lint.framework import Rule

    class Dupe(Rule):
        code = "SIM101"
        name = "dupe"
        rationale = "duplicate"

    with pytest.raises(ValueError, match="duplicate rule code"):
        register_rule(Dupe)

    class ProjectDupe(ProjectRule):
        code = "SIM601"
        name = "dupe"
        rationale = "duplicate"

    with pytest.raises(ValueError, match="duplicate rule code"):
        register_rule(ProjectDupe)


# ---------------------------------------------------------------------------
# CLI surface


def test_cli_project_json_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "--project", "--json",
         "--no-cache"],
        capture_output=True, text=True, cwd=str(REPO_ROOT),
        env={**__import__("os").environ,
             "PYTHONPATH": str(REPO_ROOT / "src")},
        timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is True
    assert payload["files_checked"] >= 100
