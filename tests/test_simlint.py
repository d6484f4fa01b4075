"""simlint: rule fixtures, suppressions, reporters, tree check.

Every per-file rule code gets a minimal snippet that fires it and the
same snippet with an inline ``# simlint: disable=<code>`` that silences
it.  The tree-wide test is the real gate: the shipped source must lint
clean, and an inline suppression is the only way to accept a finding.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import (
    Finding,
    ProjectRule,
    build_project_from_sources,
    lint_paths,
    lint_sources,
    lint_tree,
    registered_rules,
    render_json,
    render_text,
    run_project_rules,
)
from repro.lint.framework import ProjectLinter, parse_file, read_sources

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).parent / "lint_fixtures"


# ---------------------------------------------------------------------------
# Rule fixtures.  Each case: {path: source}, plus where the finding anchors.
# ---------------------------------------------------------------------------

CASES = {
    "SIM101": {
        "files": {"repro/sim/clock.py":
                  "import time\n"
                  "STAMP = time.time()\n"},
        "at": ("repro/sim/clock.py", 2),
    },
    "SIM102": {
        "files": {"repro/iomodels/steer.py":
                  "import random\n"
                  "RNG = random.Random(0)\n"},
        "at": ("repro/iomodels/steer.py", 2),
    },
    "SIM103": {
        "files": {"repro/sim/order.py":
                  "def pick(items):\n"
                  "    return sorted(items, key=lambda x: id(x))\n"},
        "at": ("repro/sim/order.py", 2),
    },
    "SIM104": {
        "files": {"repro/experiments/agg.py":
                  "def total(d):\n"
                  "    return sum(d.values())\n"},
        "at": ("repro/experiments/agg.py", 2),
    },
    "SIM105": {
        "files": {"repro/sim/knobs.py":
                  "import os\n"
                  "DEBUG = os.environ.get('REPRO_DEBUG')\n"},
        "at": ("repro/sim/knobs.py", 2),
    },
    "SIM202": {
        "files": {"repro/iomodels/charge.py":
                  "def work(core):\n"
                  "    core.execute(500, tag='mystery')\n"},
        "at": ("repro/iomodels/charge.py", 2),
    },
    "SIM301": {
        "files": {"repro/sim/cb.py":
                  "def on_event(value, acc=[]):\n"
                  "    acc.append(value)\n"},
        "at": ("repro/sim/cb.py", 1),
    },
    "SIM302": {
        "files": {"repro/cluster/sched.py":
                  "def arm(env, vms):\n"
                  "    for vm in vms:\n"
                  "        env.call_soon(lambda: vm.kick())\n"},
        "at": ("repro/cluster/sched.py", 3),
    },
    "SIM303": {
        "files": {"repro/experiments/poke.py":
                  "def drain(env):\n"
                  "    while env._heap:\n"
                  "        env.step()\n"},
        "at": ("repro/experiments/poke.py", 2),
    },
    "SIM401": {
        "files": {"repro/telemetry/names.py":
                  "def bind(registry):\n"
                  "    return registry.register_counter('Bad-Name')\n"},
        "at": ("repro/telemetry/names.py", 2),
    },
    "SIM402": {
        "files": {"repro/telemetry/dup.py":
                  "def bind(registry):\n"
                  "    registry.register_counter('io.requests')\n"
                  "    registry.register_counter('io.requests')\n"},
        "at": ("repro/telemetry/dup.py", 3),
    },
    "SIM403": {
        "files": {"repro/iomodels/span.py":
                  "def handle(tracer, now):\n"
                  "    tracer.begin(now, 'request.service')\n"},
        "at": ("repro/iomodels/span.py", 2),
    },
    "SIM404": {
        "files": {"repro/faults/tlbind.py":
                  "def bind(env):\n"
                  "    timeline = Timeline(WIDTH)\n"
                  "    env.add_monitor(timeline)\n"},
        "at": ("repro/faults/tlbind.py", 2),
    },
    "SIM405": {
        "files": {"repro/faults/win.py":
                  "def bind(telemetry):\n"
                  "    return telemetry.bind_timeline(width_ns=250000)\n"},
        "at": ("repro/faults/win.py", 2),
    },
    "SIM501": {
        "files": {"repro/experiments/cast.py":
                  "ROWS = ('vrio', 'elvis', 'baseline')\n"},
        "at": ("repro/experiments/cast.py", 1),
    },
}


def _suppress(files, path, line, code):
    """The same sources with an inline disable on the flagged line."""
    out = dict(files)
    lines = out[path].splitlines()
    lines[line - 1] += f"  # simlint: disable={code}"
    out[path] = "\n".join(lines) + "\n"
    return out


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_fires(code):
    case = CASES[code]
    result = lint_sources(case["files"], only=[code])
    assert len(result.findings) == 1, (code, result.findings)
    finding = result.findings[0]
    assert finding.code == code
    assert (finding.path, finding.line) == case["at"]


@pytest.mark.parametrize("code", sorted(CASES))
def test_rule_suppressed_inline(code):
    case = CASES[code]
    path, line = case["at"]
    files = _suppress(case["files"], path, line, code)
    result = lint_sources(files, only=[code])
    assert result.findings == []
    assert result.suppressed == 1


def test_per_file_rules_carry_no_state_across_files():
    # The lint cache keeps each file's findings on their own, which is
    # sound only if no rule's verdict on a file depends on the files
    # walked before it.
    cases = [item for case in CASES.values()
             for item in case["files"].items()]
    files = cases + list(read_sources([SRC_ROOT / "repro", FIXTURES],
                                      SRC_ROOT)) + cases
    together = ProjectLinter()
    outcomes = [together.add_file(path, parse_file(path, source))
                for path, source in files]
    for (path, source), outcome in zip(files, outcomes):
        alone = ProjectLinter().add_file(path, parse_file(path, source))
        assert alone == outcome, path
    assert sum(bool(outcome.findings) for outcome in outcomes) \
        >= 2 * len(CASES)


def test_every_registered_rule_has_a_fixture():
    # Per-file rules fire on their CASES snippet; SIM6xx rules on their
    # seeded-bug corpus under tests/lint_fixtures/<code>/.
    registry = registered_rules()
    project_codes = sorted(code for code, cls in registry.items()
                           if issubclass(cls, ProjectRule))
    assert sorted(registry) == sorted(list(CASES) + project_codes)
    for code in project_codes:
        root = FIXTURES / code.lower()
        assert root.is_dir(), f"missing fixture corpus for {code}"
        files = {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8")
                 for p in sorted(root.rglob("*.py"))}
        result = run_project_rules(build_project_from_sources(files),
                                   only=[code])
        assert result.findings, f"{code} does not fire on its corpus"


# ---------------------------------------------------------------------------
# Targeted negatives: the sanctioned idioms must NOT fire.
# ---------------------------------------------------------------------------

def test_cli_exempt_from_environ():
    source = "import os\nV = os.environ.get('X')\n"
    assert lint_sources({"repro/cli.py": source},
                        only=["SIM105"]).findings == []


def test_cli_wall_clock_read_fires_sim101():
    source = "import time\nT = time.perf_counter()\n"
    result = lint_sources({"repro/cli.py": source}, only=["SIM101"])
    assert [f.code for f in result.findings] == ["SIM101"]


def test_envvars_module_may_read_environ():
    source = "import os\nV = os.environ.get('X')\n"
    assert lint_sources({"repro/envvars.py": source},
                        only=["SIM105"]).findings == []


def test_rng_registry_may_construct_random():
    source = "import random\nR = random.Random('0/name')\n"
    assert lint_sources({"repro/sim/rng.py": source},
                        only=["SIM102"]).findings == []


def test_identity_derived_stream_name_fires_sim102():
    source = ("def build(rng, port):\n"
              "    return rng.stream(f'openloop-{id(port)}-arrivals')\n")
    result = lint_sources({"repro/workloads/gen.py": source},
                          only=["SIM102"])
    assert len(result.findings) == 1
    assert "substream name" in result.findings[0].message


def test_stable_stream_names_pass_sim102():
    source = ("def build(rng, i):\n"
              "    a = rng.stream(f'openloop-{i}-arrivals')\n"
              "    b = rng.stream('openloop-' + str(i) + '-sizes')\n"
              "    return a, b\n")
    assert lint_sources({"repro/workloads/gen.py": source},
                        only=["SIM102"]).findings == []


def test_sorted_iteration_passes_sim104():
    source = ("def total(d):\n"
              "    return sum(d[k] for k in sorted(d))\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM104"]).findings == []


def test_default_bound_lambda_passes_sim302():
    source = ("def arm(env, vms):\n"
              "    for vm in vms:\n"
              "        env.call_soon(lambda vm=vm: vm.kick())\n"
              "    vm = None\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM302"]).findings == []


def test_immediately_called_lambda_passes_sim302():
    source = ("def arm(env, vms):\n"
              "    for vm in vms:\n"
              "        env.call_soon((lambda: vm.kick())())\n"
              "    return [(lambda: v)() for v in vms]\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM302"]).findings == []


# SIM302's two shapes, anchored at the closure (loop capture) or at the
# event-system call (a local reassigned after the subscription point).
SIM302_SHAPES = {
    "reassigned-in-module-code": (
        "delay = 5\n"
        "env.call_soon(lambda: print(delay), 0)\n"
        "delay = 7\n",
        [(2, 0, "callback passed to call_soon() captures local 'delay', "
                "which is reassigned at line 3 after the subscription "
                "point")]),
    "loop-then-reassigned": (
        "def arm(env, vms):\n"
        "    for vm in vms:\n"
        "        env.call_soon(lambda: vm.kick())\n"
        "    vm = None\n",
        [(3, 22, "'<lambda>' captures loop variable(s) vm late-bound; bind "
                 "them as default arguments (vm=vm)"),
         (3, 8, "callback passed to call_soon() captures local 'vm', which "
                "is reassigned at line 4 after the subscription point")]),
    "def-parameter-shadows-loop-variable": (
        "def drive(pairs):\n"
        "    for sched, log in pairs:\n"
        "        def first(sched=sched, log=log):\n"
        "            sched.call_soon(lambda: log.append('ready'))\n"
        "        sched.call_soon(first, 5)\n", []),
}


@pytest.mark.parametrize("shape", sorted(SIM302_SHAPES))
def test_sim302_shapes(shape):
    source, expected = SIM302_SHAPES[shape]
    result = lint_sources({"repro/x.py": source}, only=["SIM302"])
    assert sorted((f.line, f.col, f.message) for f in result.findings) \
        == sorted(expected)


def test_nested_def_duplicate_reported_once_sim402():
    # The inner def's registrations belong to the inner scope only; the
    # enclosing def must not report them a second time.
    source = ("def outer(reg):\n"
              "    def inner():\n"
              "        reg.register_counter('a.b')\n"
              "        reg.register_counter('a.b')\n"
              "    return inner\n")
    result = lint_sources({"repro/telemetry/nested.py": source},
                          only=["SIM402"])
    assert len(result.findings) == 1, result.findings
    assert result.findings[0].line == 4
    assert "'inner'" in result.findings[0].message


def test_closed_span_passes_sim403():
    source = ("def handle(tracer, now):\n"
              "    tracer.begin(now, 'request.service')\n"
              "    tracer.end(now + 5, 'request.service')\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM403"]).findings == []


def test_flushed_and_handed_off_timelines_pass_sim404():
    source = ("def flushed(env, now):\n"
              "    timeline = Timeline(WIDTH)\n"
              "    env.add_monitor(timeline)\n"
              "    timeline.flush(now)\n"
              "def handoff():\n"
              "    timeline = Timeline(WIDTH)\n"
              "    return timeline\n"
              "def chained(spec, timeline, recorder):\n"
              "    probe = SloProbe(spec, recorder=recorder).attach(timeline)\n"
              "    return probe\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM404"]).findings == []


def test_single_model_per_tuple_and_dicts_pass_sim501():
    # fig11-style configs (one model name per inner tuple) and paper
    # reference dicts are not shadow catalogs; only a literal with two or
    # more model names as *direct* elements is.
    source = ("CONFIGS = [\n"
              "    ('elvis', 1, 4),\n"
              "    ('vrio', 2, 4),\n"
              "]\n"
              "PAPER_TAB03 = {'vrio': 2, 'elvis': 4}\n")
    assert lint_sources({"repro/experiments/cfg.py": source},
                        only=["SIM501"]).findings == []


def test_iomodels_package_may_list_model_names_sim501():
    source = "SHIM = ('vrio', 'elvis', 'baseline')\n"
    assert lint_sources({"repro/iomodels/registry.py": source},
                        only=["SIM501"]).findings == []


def test_list_and_set_literals_fire_sim501():
    source = ("A = ['swpt', 'flexbso']\n"
              "B = {'nvme_pt', 'optimum'}\n")
    result = lint_sources({"repro/experiments/lists.py": source},
                          only=["SIM501"])
    assert len(result.findings) == 2


def test_slospec_and_named_widths_pass_sim405():
    source = ("WIDTH = 500000\n"
              "def spec():\n"
              "    return SloSpec(name='x', window_ns=250000)\n"
              "def named():\n"
              "    return Timeline(WIDTH)\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM405"]).findings == []


def test_cost_model_charge_attribute_passes_sim202():
    source = ("def work(core, costs):\n"
              "    core.execute(costs.ring_op_cycles, tag='ring')\n")
    assert lint_sources({"repro/x.py": source},
                        only=["SIM202"]).findings == []


def test_parse_error_reported_as_sim000():
    result = lint_sources({"repro/broken.py": "def broken(:\n"})
    assert result.findings == []
    assert len(result.parse_errors) == 1
    assert result.parse_errors[0].code == "SIM000"
    assert not result.clean


# ---------------------------------------------------------------------------
# Reporters.
# ---------------------------------------------------------------------------

def test_json_reporter_schema():
    case = CASES["SIM104"]
    result = lint_sources(case["files"], only=["SIM104"])
    payload = json.loads(render_json(result, root="src"))
    assert payload["version"] == 2
    assert payload["root"] == "src"
    assert payload["clean"] is False
    assert payload["files_checked"] == 1
    assert payload["counts"] == {"SIM104": 1}
    assert payload["suppressed"] == 0
    assert "baselined" not in payload
    (entry,) = payload["findings"]
    assert sorted(entry) == ["code", "col", "line", "message", "path"]
    assert entry["code"] == "SIM104"
    assert Finding.from_dict(entry) == result.findings[0]


def test_text_reporter_lists_findings_and_summary():
    case = CASES["SIM104"]
    result = lint_sources(case["files"], only=["SIM104"])
    text = render_text(result)
    assert "repro/experiments/agg.py:2" in text
    assert "SIM104: 1" in text


# ---------------------------------------------------------------------------
# The gate: the shipped tree lints clean, in-process and via the CLI.
# ---------------------------------------------------------------------------

def _lint_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True, text=True, env=env, cwd=str(SRC_ROOT.parent))


def test_tree_lints_clean():
    result = lint_tree()
    assert result.clean, "\n".join(
        f.format() for f in result.all_findings())


def test_single_file_lints_clean():
    # A partial tree must not manufacture findings: CostModel fields read
    # only in unlinted files are not dead (that is SIM602's whole-tree
    # question, asked by --project).
    result = lint_paths([SRC_ROOT / "repro" / "iomodels" / "costs.py"])
    assert result.files_checked == 1
    assert result.clean, "\n".join(
        f.format() for f in result.all_findings())


def test_cli_lint_json_smoke():
    proc = _lint_cli("--json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["clean"] is True
    assert payload["findings"] == []


@pytest.mark.parametrize("args", [
    ("--baseline", "LINT_BASELINE.json"),
    ("--no-baseline",),
    ("--update-baseline",),
    ("--jobs", "2"),
    ("--changed",),
])
def test_retired_lint_options_are_usage_errors(args):
    proc = _lint_cli(*args)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "usage:" in proc.stderr
    assert f"unrecognized arguments: {args[0]}" in proc.stderr


def _run_lint_in_process(capsys, *args):
    import argparse

    from repro.lint import add_lint_arguments, run_lint

    parser = argparse.ArgumentParser()
    add_lint_arguments(parser)
    code = run_lint(parser.parse_args([*args, "--no-cache", "--json"]))
    return code, capsys.readouterr().out


def test_only_takes_comma_separated_codes(capsys):
    tests = str(SRC_ROOT.parent / "tests")
    listed = _run_lint_in_process(capsys, "--only", "SIM104,SIM501", tests)
    repeated = _run_lint_in_process(capsys, "--only", "SIM104",
                                    "--only", "SIM501", tests)
    mixed = _run_lint_in_process(capsys, "--only", "SIM501",
                                 "--only", "SIM104,SIM501", tests)
    assert listed == repeated == mixed
    assert listed[0] == 1
    assert sorted(json.loads(listed[1])["counts"]) == ["SIM104", "SIM501"]
    # SIM603 is retired: SIM302 does its check.
    code, out = _run_lint_in_process(capsys, "--only", "SIM101,SIM999",
                                     "--only", "BOGUS,SIM603", tests)
    assert code == 2
    assert out.startswith(
        "lint: unknown rule code(s): BOGUS, SIM603, SIM999; ")


def test_lint_tree_empty_paths_checks_no_files():
    # An empty path list (a caller that filtered every path away) means
    # no files, not the whole tree.
    assert lint_tree(paths=[]).files_checked == 0


# ---------------------------------------------------------------------------
# The shared walker: ast.walk / ast.iter_child_nodes minus the ctx markers.
# ---------------------------------------------------------------------------

# Syntax the tree may not use, so every node class the walker can meet
# is covered at least once.
_SYNTAX_SAMPLER = """\
from __future__ import annotations
import os.path as osp, sys
from . import sibling
global_name: int = 1
@decorator(arg, *rest, key=1, **extra)
async def coroutine(a, /, b: int = 2, *args, c, d=3, **kwargs) -> None:
    global global_name
    async with lock as (x, [y, *z]):
        async for item in stream:
            await item
    del a[1:2, ::3], b.attr
    x += 1; y @= z; w = yield; v = yield from gen
    nonlocal_free = lambda q, *r, s=1, **t: (q, r, s, t)
    print(f"{x!r:>{width}} {y=}", {**d, 'k': 1}, {1, 2}, [*a], -x, not y)
    assert x is not y and x in y or x < y <= z, "message"
    raise ValueError("bad") from None
class Klass(Base, metaclass=Meta):
    attr: list[int]
    def method(self):
        try:
            pass
        except* (TypeError, ValueError) as group:
            raise
        else:
            return {k: v for k, v in self.items() if k if v}
        finally:
            (gen for gen in range(3)), [i async for i in aiter()]
        while (n := next(it)) is not None:
            break
        else:
            continue
def matcher(command):
    match command:
        case [1, *rest] | {"key": 2, **others}:
            pass
        case Point(x=0, y=_) as point if point:
            pass
        case None | "text" | -1 | 1 + 2j:
            pass
"""


def _walked_files():
    for root in (SRC_ROOT / "repro", FIXTURES):
        for path in sorted(root.rglob("*.py")):
            yield path.as_posix(), path.read_text(encoding="utf-8")
    if sys.version_info >= (3, 11):  # match and except* syntax
        yield "syntax-sampler", _SYNTAX_SAMPLER


def test_walker_matches_ast_walk_without_ctx_markers():
    import ast

    from repro.lint.framework import child_nodes, walk

    def drop_ctx(nodes):
        return [n for n in nodes if not isinstance(n, ast.expr_context)]

    for label, source in _walked_files():
        tree = ast.parse(source)
        walked = list(walk(tree))
        expected = drop_ctx(ast.walk(tree))
        assert len(walked) == len(expected), label
        assert all(a is b for a, b in zip(walked, expected)), label
        for node in walked:
            children = child_nodes(node)
            expected = drop_ctx(ast.iter_child_nodes(node))
            assert len(children) == len(expected), (label, node)
            assert all(a is b for a, b in zip(children, expected)), \
                (label, node)


def test_lint_package_has_one_walker():
    # Every traversal in repro.lint goes through framework.child_nodes /
    # framework.walk; the generic ast walkers must not creep back.
    import ast

    banned = {"walk", "iter_child_nodes"}
    uses = []
    for path in sorted((SRC_ROOT / "repro" / "lint").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in banned \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "ast":
                uses.append(f"{path.name}:{node.lineno} ast.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "ast":
                uses += [f"{path.name}:{node.lineno} from ast import "
                         f"{alias.name}" for alias in node.names
                         if alias.name in banned]
    assert uses == []


# ---------------------------------------------------------------------------
# SIM303 boundaries: the kernel and an object's own state are exempt.
# ---------------------------------------------------------------------------

def test_sim303_allows_the_kernel_its_own_coupling():
    result = lint_sources({
        "repro/sim/fastpath.py":
            "def drain(env):\n"
            "    heap = env._heap\n"
            "    env._seq += 1\n"
            "    return env._ready\n"}, only=["SIM303"])
    assert result.findings == []


def test_sim303_allows_own_private_state():
    # telemetry/flight.py keeps its own self._seq entry counter; owning
    # a field with one of these names is not a scheduler poke.
    result = lint_sources({
        "repro/telemetry/recorder.py":
            "class Recorder:\n"
            "    def __init__(self):\n"
            "        self._seq = 0\n"
            "    def record(self):\n"
            "        self._seq += 1\n"}, only=["SIM303"])
    assert result.findings == []


def test_sim303_flags_every_internal_field():
    src = ("def meddle(env):\n"
           "    env._heap.clear()\n"
           "    env._seq = 0\n"
           "    env._ready.clear()\n")
    result = lint_sources({"repro/cluster/meddle.py": src}, only=["SIM303"])
    assert sorted(f.line for f in result.findings) == [2, 3, 4]


# ---------------------------------------------------------------------------
# mypy (optional dependency; pinned in pyproject's [lint] extra).
# ---------------------------------------------------------------------------

def test_mypy_clean_on_annotated_modules():
    pytest.importorskip("mypy")
    from mypy import api

    out, err, status = api.run(["--config-file",
                                str(SRC_ROOT.parent / "pyproject.toml")])
    assert status == 0, out + err
