"""Flight recorder: a bounded ring buffer of recent engine activity.

Attached as an :class:`~repro.sim.Environment` monitor, the recorder keeps
the last ``capacity`` scheduler steps (plus any annotations components
record explicitly) so that when something goes wrong — an invariant
violation, a stuck workload — the moments leading up to it can be dumped
for diagnosis.  Recording is passive: it never schedules events, so runs
with and without a recorder are bit-identical.  A step is stored as the
item itself and described only when read, so the per-step cost is one
ring append; the ring bounds how many items it keeps alive.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional, Tuple

__all__ = ["FlightRecorder", "FlightEntry"]

# (seq, at_ns, source, detail)
FlightEntry = Tuple[int, int, str, str]


def _describe(item: Any) -> Tuple[str, str]:
    """Classify one scheduler item into a (source, detail) pair."""
    name = getattr(item, "name", None)
    if name is not None and hasattr(item, "generator"):
        return "process", str(name)
    if hasattr(item, "callbacks"):
        # A timer is a plain Event with its delay set.
        return "event", ("Timeout" if item.delay is not None
                         else type(item).__name__)
    return "callback", getattr(item, "__name__", "<callable>")


class FlightRecorder:
    """Remembers the last N scheduler steps and explicit annotations."""

    # Pinned annotations kept outside the ring (see note(pin=True)).
    PINNED_CAPACITY = 64

    def __init__(self, capacity: int = 256) -> None:
        if capacity <= 0:
            raise ValueError(f"recorder capacity must be positive: {capacity}")
        self.capacity = capacity
        # An annotation's FlightEntry, or (seq, at_ns, item) for a step.
        self._entries: Deque[Tuple[Any, ...]] = deque(maxlen=capacity)
        self._pinned: List[FlightEntry] = []
        self._seq = 0
        self._env: Optional[Any] = None

    # -- engine monitor interface ------------------------------------------

    def attach(self, env: Any) -> "FlightRecorder":
        env.add_monitor(self)
        self._env = env
        return self

    def detach(self) -> None:
        if self._env is not None:
            self._env.remove_monitor(self)
            self._env = None

    def on_step(self, now: int, item: Any) -> None:
        self._seq += 1
        self._entries.append((self._seq, now, item))

    # -- explicit annotations ----------------------------------------------

    def note(self, at_ns: int, source: str, detail: str = "",
             pin: bool = False) -> None:
        """Record a component-level annotation alongside engine steps.

        ``pin=True`` additionally keeps the entry outside the ring (up
        to ``PINNED_CAPACITY`` of them), so rare milestone annotations —
        SLO violations, fault marks — survive the churn of ordinary
        steps and still show up in an end-of-run dump.
        """
        self._seq += 1
        entry = (self._seq, at_ns, str(source), str(detail))
        self._entries.append(entry)
        if pin and len(self._pinned) < self.PINNED_CAPACITY:
            self._pinned.append(entry)

    # -- inspection --------------------------------------------------------

    @property
    def recorded(self) -> int:
        """Total entries ever recorded (>= len(entries) once wrapped)."""
        return self._seq

    def entries(self, last: Optional[int] = None) -> List[FlightEntry]:
        """The most recent ``last`` ring entries, with every pinned
        annotation merged back in (in sequence order) regardless of age."""
        items = list(self._entries)
        if last is not None:
            items = items[-last:]
        items = [entry if len(entry) == 4
                 else (entry[0], entry[1], *_describe(entry[2]))
                 for entry in items]
        if self._pinned:
            seen = {entry[0] for entry in items}
            items = [entry for entry in self._pinned
                     if entry[0] not in seen] + items
            items.sort(key=lambda entry: entry[0])
        return items

    def dump(self, last: Optional[int] = None) -> str:
        """Render the most recent entries, oldest first."""
        items = self.entries(last)
        if not items:
            return "flight recorder: empty"
        lines = [f"flight recorder: last {len(items)} of "
                 f"{self.recorded} entries"]
        for seq, at_ns, source, detail in items:
            lines.append(f"  #{seq:<8d} {at_ns / 1000.0:12.3f}us  "
                         f"{source:9s} {detail}")
        return "\n".join(lines)
