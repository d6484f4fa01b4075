"""Dynamic sidecore allocation — the alternative §2 considers and rejects.

"Conceivably, we could dynamically (de)allocate sidecores in response to
the changing load [49].  But this approach is limited for two reasons.
First, because sidecores are discrete — it is impossible to allocate a
fraction of a sidecore [...].  The second, more significant limitation
[...] is that it is irrelevant when the aggregated need for VM and I/O
processing exceeds the capacity of the individual physical server."

:class:`DynamicSidecoreAllocator` grows/shrinks an Elvis instance's
sidecore set between epochs based on measured *useful* utilization.  Both
limitations are inherent and measurable here: allocation is in whole
cores, and the spare cores must come from — and stay on — the same
VMhost.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from ..hw.cpu import Core
from ..sim import Counter, Environment, Event
from .elvis import ElvisModel

__all__ = ["DynamicSidecoreAllocator"]


class DynamicSidecoreAllocator:
    """Epoch-based sidecore scaling for one Elvis host.

    Parameters
    ----------
    model:
        The Elvis instance whose sidecore set is managed.
    spare_cores:
        Local cores the allocator may turn into sidecores (and must return
        when shrinking).  They cannot serve any other host — the paper's
        second limitation.
    epoch_ns:
        How often utilization is evaluated.
    grow_threshold / shrink_threshold:
        Mean useful-utilization bounds triggering (de)allocation.
    """

    def __init__(self, env: Environment, model: ElvisModel,
                 spare_cores: List[Core], epoch_ns: int = 2_000_000,
                 grow_threshold: float = 0.8,
                 shrink_threshold: float = 0.25) -> None:
        if not 0.0 < shrink_threshold < grow_threshold <= 1.0:
            raise ValueError(
                f"need 0 < shrink ({shrink_threshold}) < grow "
                f"({grow_threshold}) <= 1")
        self.env = env
        self.model = model
        self.spare_cores = list(spare_cores)
        self.epoch_ns = epoch_ns
        self.grow_threshold = grow_threshold
        self.shrink_threshold = shrink_threshold
        self.grow_events = Counter("grow_events")
        self.shrink_events = Counter("shrink_events")
        self._last_useful: Dict[int, int] = {
            id(c): 0 for c in model.sidecores + spare_cores}
        env.process(self._control_loop(), name="sidecore-allocator")

    @property
    def active_sidecores(self) -> int:
        return len(self.model.sidecores)

    def _epoch_utilization(self) -> float:
        """Mean useful fraction of the active sidecores over the epoch."""
        total = 0.0
        for core in self.model.sidecores:
            useful = core.util.useful_ns
            delta = useful - self._last_useful.get(id(core), 0)
            total += delta / self.epoch_ns
        for core in self.model.sidecores + self.spare_cores:
            self._last_useful[id(core)] = core.util.useful_ns
        return total / max(1, len(self.model.sidecores))

    def _control_loop(self) -> Iterator[Event]:
        env = self.env
        while True:
            yield env.timeout(self.epoch_ns)
            utilization = self._epoch_utilization()
            if utilization > self.grow_threshold and self.spare_cores:
                core = self.spare_cores.pop(0)
                self.model.sidecores.append(core)
                self.grow_events.add()
                self.model.spread_vms(self.model.sidecores)
            elif (utilization < self.shrink_threshold
                    and len(self.model.sidecores) > 1):
                core = self.model.sidecores.pop()
                self.spare_cores.insert(0, core)
                self.shrink_events.add()
                self.model.spread_vms(self.model.sidecores)
