"""The I/O-model registry: one authoritative catalog of contenders.

Every model module registers a :class:`ModelInfo` at import time —
name, one-line description, capability flags, topology builders, and the
figure/table ordering ranks.  Everything downstream *derives* from this
catalog instead of re-listing model names:

* ``cluster.testbed`` validates specs and dispatches construction through
  the registered builders (``MODEL_NAMES`` is :func:`model_names`);
* the experiment modules' historical tuples (``FIG9_MODELS``,
  ``MODEL_ORDER``, …) are :func:`filter_models` calls — restricting any of
  them to the pre-registry five reproduces the old hand-written tuples
  byte-for-byte;
* the CLI's ``models`` listing and unknown-model errors render from
  :func:`model_names` / :func:`get_model`;
* the simlint rule SIM501 flags hand-written model-name tuples anywhere
  outside ``repro/iomodels/`` so the catalog cannot silently fork.

Builders receive a context object (constructed by
:mod:`repro.cluster.testbed`) exposing the environment, spec, cost model,
shared stats, machines, and wiring factories — model modules never import
the cluster layer, so registration stays cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = [
    "Capabilities",
    "ModelInfo",
    "SimpleWiring",
    "ConsolidationWiring",
    "register_model",
    "get_model",
    "model_names",
    "filter_models",
    "all_models",
]


@dataclass(frozen=True)
class Capabilities:
    """What one I/O model can do; the basis of every derived model list.

    ``topologies`` names the :mod:`repro.cluster.testbed` topologies the
    model can be built into.  ``ablation`` marks variants that exist only
    to isolate one mechanism (vrio_nopoll) and are excluded from the
    headline figures.  ``exitless`` means the steady-state datapath
    completes I/O without exits or injections (Table 3's zero-exit rows)
    — the tail-latency table only compares exitless designs.
    """

    net: bool = True
    block: bool = True
    polling: bool = False
    topologies: Tuple[str, ...] = ("simple",)
    ablation: bool = False
    exitless: bool = True

    @property
    def consolidation(self) -> bool:
        return "consolidation" in self.topologies


@dataclass(frozen=True)
class ModelInfo:
    """One registered I/O model.

    ``build_simple`` wires the model into the single-VMhost (Figure 6)
    topology; ``build_consolidation`` into the multi-VMhost block topology
    (required iff the capabilities claim consolidation support).  The
    three ranks place the model in the historical orderings: ``tab_rank``
    (Table 3 / Figure 5 rows), ``throughput_rank`` (Figure 9 / Table 4
    series), ``block_rank`` (Figure 14 series).  New models append after
    the paper's five in every ordering.
    """

    name: str
    description: str
    capabilities: Capabilities
    build_simple: Callable[..., Any] = field(repr=False)
    build_consolidation: Optional[Callable[..., Any]] = field(
        default=None, repr=False)
    tab_rank: int = 100
    throughput_rank: int = 100
    block_rank: int = 100


@dataclass
class SimpleWiring:
    """What a simple-topology builder hands back to the testbed."""

    model: Any
    ports: List[Any]
    service_cores: List[Any] = field(default_factory=list)


@dataclass
class ConsolidationWiring:
    """What a consolidation builder hands back to the testbed."""

    models: List[Any] = field(default_factory=list)
    vms: List[Any] = field(default_factory=list)
    ports: List[Any] = field(default_factory=list)
    service_cores: List[Any] = field(default_factory=list)
    model_by_vm: Dict[str, Any] = field(default_factory=dict)


_REGISTRY: Dict[str, ModelInfo] = {}

_ORDER_KEYS: Dict[str, Callable[[ModelInfo], Any]] = {
    "name": lambda info: info.name,
    "tab": lambda info: (info.tab_rank, info.name),
    "throughput": lambda info: (info.throughput_rank, info.name),
    "block": lambda info: (info.block_rank, info.name),
}


def register_model(info: ModelInfo) -> ModelInfo:
    """Add one model to the catalog; duplicate names are a hard error."""
    if info.name in _REGISTRY:
        raise ValueError(f"duplicate I/O model name {info.name!r}")
    if info.capabilities.consolidation and info.build_consolidation is None:
        raise ValueError(
            f"model {info.name!r} claims consolidation support but has "
            "no consolidation builder")
    _REGISTRY[info.name] = info
    return info


def model_names() -> Tuple[str, ...]:
    """All registered model names, alphabetical (the old MODEL_NAMES)."""
    return tuple(sorted(_REGISTRY))


def get_model(name: str) -> ModelInfo:
    """Look up one model; unknown names list the valid ids."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown model {name!r}; expected one of {model_names()}")


def all_models() -> List[ModelInfo]:
    """Every registered :class:`ModelInfo`, alphabetical by name."""
    return [_REGISTRY[name] for name in model_names()]


def filter_models(net: Optional[bool] = None,
                  block: Optional[bool] = None,
                  polling: Optional[bool] = None,
                  topology: Optional[str] = None,
                  ablation: Optional[bool] = None,
                  exitless: Optional[bool] = None,
                  order: str = "name") -> Tuple[str, ...]:
    """Model names matching the given capability constraints.

    ``None`` means "don't care".  ``order`` selects the rank used to sort
    the result: ``"tab"``, ``"throughput"``, ``"block"``, or ``"name"``.
    """
    try:
        key = _ORDER_KEYS[order]
    except KeyError:
        raise ValueError(
            f"unknown order {order!r}; expected one of "
            f"{tuple(sorted(_ORDER_KEYS))}")
    selected: List[ModelInfo] = []
    for info in _REGISTRY.values():
        caps = info.capabilities
        if net is not None and caps.net != net:
            continue
        if block is not None and caps.block != block:
            continue
        if polling is not None and caps.polling != polling:
            continue
        if topology is not None and topology not in caps.topologies:
            continue
        if ablation is not None and caps.ablation != ablation:
            continue
        if exitless is not None and caps.exitless != exitless:
            continue
        selected.append(info)
    return tuple(info.name for info in sorted(selected, key=key))
