"""Command-line entry point for simlint.

Exposed as ``python -m repro lint`` (see :mod:`repro.cli`) and also
reachable through ``python -m repro verify --lint``.

Modes
-----
* ``repro lint``              — per-file rules (SIM1xx–SIM5xx).
* ``repro lint --project``    — per-file rules plus the whole-program
  SIM6xx family (module graph → call graph → dataflow).  Both go through
  one lint cache (``--no-cache`` to bypass).

A finding is accepted in one way only: an inline
``# simlint: disable=CODE`` on its statement.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import List, Optional

from .framework import (LintResult, ProjectLinter, default_lint_root,
                        lint_paths, select_rules)
from .report import render_json, render_rule_list, render_text

__all__ = ["add_lint_arguments", "run_lint", "lint_tree"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to lint "
                             "(default: the whole repro package)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the machine-readable JSON report")
    parser.add_argument("--only", action="extend", metavar="CODES",
                        type=lambda text: text.split(","),
                        help="report only these rule codes (comma-separated, "
                             "repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and exit")
    parser.add_argument("--project", action="store_true",
                        help="also run the whole-program SIM6xx rules "
                             "(module graph, call graph, dataflow)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the lint cache file")


def _merge_results(per_file: LintResult, project: LintResult) -> LintResult:
    return LintResult(
        findings=sorted(per_file.findings + project.findings),
        suppressed=per_file.suppressed + project.suppressed,
        files_checked=max(per_file.files_checked, project.files_checked),
        parse_errors=sorted(set(per_file.parse_errors)
                            | set(project.parse_errors)))


def lint_tree(paths: Optional[List[Path]] = None,
              only: Optional[List[str]] = None,
              project: bool = False,
              use_cache: bool = True,
              cache_dir: Optional[Path] = None) -> LintResult:
    """Lint the tree the way the CLI does; importable for tests/verify.

    With ``only``, the project pass runs exactly when a SIM6xx code is
    asked for.
    """
    from .project import ProjectRule, build_project, run_project_rules

    if only is not None:
        project = bool(select_rules(only, ProjectRule))
    if not project:
        return lint_paths(paths=paths, only=only, use_cache=use_cache,
                          cache_dir=cache_dir)
    # The whole tree: one parse per file feeds both layers.  The project
    # pass saves first, so lint_paths' later write keeps what it stored.
    linter = ProjectLinter(only=only) if paths is None else None
    project_result = run_project_rules(build_project(
        use_cache=use_cache, cache_dir=cache_dir, linter=linter), only=only)
    per_file = linter.run() if linter else lint_paths(
        paths=paths, only=only, use_cache=use_cache, cache_dir=cache_dir)
    return _merge_results(per_file, project_result)


def run_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_rule_list())
        return 0
    try:
        result = lint_tree(paths=list(args.paths) or None, only=args.only,
                           project=args.project,
                           use_cache=not args.no_cache)
    except KeyError as exc:
        print(f"lint: {exc.args[0]}")
        return 2
    root = str(default_lint_root())
    if args.as_json:
        print(render_json(result, root=root))
    else:
        print(render_text(result, root=root))
    return 0 if result.clean else 1
