"""SIM5xx — I/O-model registry rules.

The model registry (PR 9) made :mod:`repro.iomodels.registry` the single
source of truth for which I/O models exist: ``MODEL_NAMES``, every
experiment's model list, the CLI listing, and the scenario catalog are
all derived from it with capability filters.  A hand-written tuple of
model names anywhere else re-introduces the pre-registry failure mode —
a new model registers itself and silently never shows up in that code
path:

* SIM501 — a tuple/list/set literal spelling out two or more registered
  model names outside ``repro/iomodels/`` is a shadow catalog; derive it
  from ``model_names()`` / ``filter_models()`` (or restrict one of the
  derived tuples) instead.  Only *direct* string elements count, so a
  list of per-model config tuples (one name each) or a dict of paper
  reference rows does not flag.
"""

from __future__ import annotations

import ast

from .framework import FileContext, Rule, register_rule

__all__ = []

# Importing the package (not just .registry) runs every model module's
# register_model() call, so the name set is the full catalog.
from .. import iomodels

# The registry and the model modules themselves are the sanctioned home
# for model-name literals (registration, capability shims, wiring).
_SANCTIONED_PREFIX = "repro/iomodels/"


@register_rule
class HardCodedModelListRule(Rule):
    code = "SIM501"
    name = "hard-coded-model-list"
    rationale = ("A literal tuple of I/O-model names is a shadow copy of "
                 "the model registry: the next registered model silently "
                 "misses that code path; derive the list via "
                 "model_names()/filter_models() instead.")

    def __init__(self) -> None:
        super().__init__()
        self.model_names = frozenset(iomodels.model_names())

    def _check(self, node, ctx: FileContext) -> None:
        if ctx.path.startswith(_SANCTIONED_PREFIX):
            return
        names = sorted({el.value for el in node.elts
                        if isinstance(el, ast.Constant)
                        and isinstance(el.value, str)
                        and el.value in self.model_names})
        if len(names) >= 2:
            self.report(ctx, node,
                        f"hard-coded I/O-model list {names} shadows the "
                        f"model registry; derive it from "
                        f"repro.iomodels.registry (model_names() or "
                        f"filter_models()) so new models are not silently "
                        f"dropped")

    def visit_Tuple(self, node: ast.Tuple, ctx: FileContext) -> None:
        self._check(node, ctx)

    def visit_List(self, node: ast.List, ctx: FileContext) -> None:
        self._check(node, ctx)

    def visit_Set(self, node: ast.Set, ctx: FileContext) -> None:
        self._check(node, ctx)
