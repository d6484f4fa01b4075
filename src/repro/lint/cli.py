"""Command-line entry point for simlint.

Exposed as ``python -m repro lint`` (see :mod:`repro.cli`) and also
reachable through ``python -m repro verify --lint``.

Modes
-----
* ``repro lint``              — per-file rules (SIM1xx–SIM5xx).
* ``repro lint --project``    — per-file rules plus the whole-program
  SIM6xx family (module graph → call graph → dataflow).  Both go through
  one lint cache (``--no-cache`` to bypass).
* ``repro lint --changed``    — per-file rules over only the files that
  differ from ``git merge-base HEAD main`` (the pre-commit loop);
  falls back to the full tree outside a git checkout.

A finding is accepted in one way only: an inline
``# simlint: disable=CODE`` on its statement.

Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import subprocess
from pathlib import Path
from typing import List, Optional

from .framework import (LintResult, ProjectLinter, default_lint_root,
                        lint_paths, select_rules)
from .report import render_json, render_rule_list, render_text

__all__ = ["add_lint_arguments", "run_lint", "lint_tree", "changed_paths"]


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
    parser.add_argument("--changed", action="store_true",
                        help="lint only files differing from "
                             "git merge-base HEAD main "
                             "(full tree outside a git checkout)")


def changed_paths(root: Optional[Path] = None) -> Optional[List[Path]]:
    """Python files changed vs ``git merge-base HEAD main``.

    Returns ``None`` when git is unavailable or we are outside a
    checkout — callers then fall back to the full tree.  An empty list
    is a real answer: nothing changed.
    """
    root = root or default_lint_root()
    try:
        base = subprocess.run(
            ["git", "merge-base", "HEAD", "main"], cwd=root,
            capture_output=True, text=True, timeout=30)
        if base.returncode != 0:
            return None
        merge_base = base.stdout.strip()
        diff = subprocess.run(
            ["git", "diff", "--name-only", merge_base], cwd=root,
            capture_output=True, text=True, timeout=30)
        untracked = subprocess.run(
            ["git", "ls-files", "--others", "--exclude-standard"], cwd=root,
            capture_output=True, text=True, timeout=30)
        if diff.returncode != 0:
            return None
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], cwd=root,
            capture_output=True, text=True, timeout=30)
        if top.returncode != 0:
            return None
        repo_root = Path(top.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return None
    names = diff.stdout.splitlines()
    if untracked.returncode == 0:
        names += untracked.stdout.splitlines()
    out: List[Path] = []
    for name in names:
        if not name.endswith(".py"):
            continue
        candidate = repo_root / name
        if candidate.is_file():
            try:
                candidate.resolve().relative_to(
                    (root / "repro").resolve())
            except ValueError:
                continue
            out.append(candidate)
    return sorted(set(out))


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
    paths: Optional[List[Path]] = list(args.paths) or None
    if args.changed and not args.paths:
        changed = changed_paths()
        if changed is not None:
            if not changed and not args.project:
                print("lint: no files changed vs merge-base; nothing to do")
                return 0
            paths = changed
    try:
        result = lint_tree(paths=paths, only=args.only,
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
