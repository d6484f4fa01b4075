"""simlint: AST-based static analysis for simulator invariants.

One walk per file and one registry of rules, in six families:

* SIM1xx (:mod:`.determinism`) — bit-determinism: wall-clock reads,
  unthreaded RNG, identity ordering, unordered iteration into
  order-sensitive sinks, environment reads outside the CLI.
* SIM2xx (:mod:`.ledger`) — cycle-ledger integrity: magic cycle
  literals charged to cores.
* SIM3xx (:mod:`.events`) — event-callback safety: mutable default
  arguments, deferred closures reading a local rebound after they are
  made (a loop variable, or a local reassigned after the subscription
  point), scheduler-internals pokes.
* SIM4xx (:mod:`.telemetry`) — telemetry hygiene: malformed metric
  names, namespace collisions, spans opened but never closed, timelines
  and SLO probes never consumed, literal window widths.
* SIM5xx (:mod:`.models`) — hand-written I/O-model name lists.
* SIM6xx (:mod:`.project`) — whole-program rules over the module
  graph / symbol tables / call graph (``--project``): interprocedural
  RNG provenance, cycle-ledger flow, telemetry hook reachability.

An inline ``# simlint: disable=CODE`` is the one way to accept a
finding.  Entry points: ``python -m repro lint`` and
``repro.lint.lint_tree``.
"""

from .cli import add_lint_arguments, lint_tree, run_lint
from .findings import (Finding, expand_suppressions, is_suppressed,
                       parse_suppressions)
from .framework import (FileContext, LintResult, ProjectLinter, Rule,
                        default_lint_root, lint_paths, lint_sources,
                        register_rule, registered_rules)
from .project import (ProjectAnalysis, ProjectRule, build_project,
                      build_project_from_sources, run_project_rules)
from .report import render_json, render_rule_list, render_text

__all__ = [
    "Finding",
    "FileContext",
    "LintResult",
    "ProjectAnalysis",
    "ProjectLinter",
    "ProjectRule",
    "Rule",
    "add_lint_arguments",
    "build_project",
    "build_project_from_sources",
    "default_lint_root",
    "expand_suppressions",
    "is_suppressed",
    "lint_paths",
    "lint_sources",
    "lint_tree",
    "parse_suppressions",
    "register_rule",
    "registered_rules",
    "render_json",
    "render_rule_list",
    "render_text",
    "run_lint",
    "run_project_rules",
]
