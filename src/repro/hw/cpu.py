"""CPU core models.

A :class:`Core` is a serving resource that executes *work items* measured in
cycles.  All latency/throughput contention on the compute side of the
reproduction is emergent from cores serving their FIFO run queues.

Two details matter for the paper:

* **Cycle accounting by tag** — Figure 10 reports cycles-per-packet broken
  down by I/O model; every ``execute()`` call carries a tag and the core
  accumulates cycles per tag, so experiments can divide by packet counts.
* **Polling semantics** — a sidecore in poll mode is 100% *busy* even when
  it has nothing to do (Figure 15).  A poll-mode core accounts idle spans as
  busy-but-useless time, and charges a small dispatch latency when work
  arrives while it was spinning (the poll loop notices new work only at its
  next iteration).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, Optional, Tuple

from ..sim import Environment, Event, Timeout, UtilizationTracker

__all__ = ["Core", "CpuSocket"]


class Core:
    """A single CPU core serving cycle-denominated work items in FIFO order.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        Diagnostic name, e.g. ``"vmhost0/core3"``.
    ghz:
        Clock frequency; ``cycles / ghz`` nanoseconds per work item.
    poll_mode:
        If True the core spins when idle (sidecore semantics): idle time is
        accounted as busy-but-useless, and newly arriving work pays
        ``poll_dispatch_ns`` before service begins.
    poll_dispatch_ns:
        Mean delay for the poll loop to notice new work on an idle core.
    """

    IDLE_POLICIES = ("halt", "poll", "mwait")

    # Per-core power draw (W).  A spinning poll loop burns nearly as much
    # as real work; monitor/mwait parks the core cheaply (§4.6 Energy).
    BUSY_WATTS = 18.0
    POLL_IDLE_WATTS = 16.5
    MWAIT_IDLE_WATTS = 3.5
    HALT_IDLE_WATTS = 5.0

    # How long an idle core takes to notice new work, per policy.  Halted
    # cores wake via interrupts, whose latency the IRQ cost paths already
    # model, so "halt" adds nothing here.
    _WAKEUP_NS = {"halt": 0, "poll": 150, "mwait": 1_500}

    def __init__(self, env: Environment, name: str, ghz: float,
                 poll_mode: bool = False, poll_dispatch_ns: int = 150,
                 idle_policy: Optional[str] = None) -> None:
        if ghz <= 0:
            raise ValueError(f"core frequency must be positive, got {ghz}")
        if idle_policy is None:
            idle_policy = "poll" if poll_mode else "halt"
        if idle_policy not in self.IDLE_POLICIES:
            raise ValueError(f"idle policy must be one of "
                             f"{self.IDLE_POLICIES}, got {idle_policy!r}")
        self.env = env
        self.name = name
        self.ghz = ghz
        self.idle_policy = idle_policy
        self.poll_mode = idle_policy == "poll"
        self.poll_dispatch_ns = (poll_dispatch_ns if self.poll_mode
                                 else self._WAKEUP_NS[idle_policy])
        self.util = UtilizationTracker(env)
        self.cycles_by_tag: Dict[str, int] = {}
        self.total_cycles = 0
        self.busy = False
        self._high: Deque[Tuple[int, bool, str, Event]] = deque()
        self._normal: Deque[Tuple[int, bool, str, Event]] = deque()
        self._idle_wakeup: Optional[Event] = None
        env.process(self._serve(), name=f"core:{name}")

    # -- public API ---------------------------------------------------------

    def ns_for(self, cycles: int) -> int:
        """Wall time in ns to execute ``cycles`` on this core."""
        return max(0, int(round(cycles / self.ghz)))

    def execute(self, cycles: int, useful: bool = True, tag: str = "work",
                high_priority: bool = False) -> Event:
        """Enqueue ``cycles`` of work; returns an event for its completion."""
        if cycles < 0:
            raise ValueError(f"negative cycle count: {cycles}")
        done = Event(self.env)
        item = (cycles, useful, tag, done)
        if high_priority:
            self._high.append(item)
        else:
            self._normal.append(item)
        wakeup = self._idle_wakeup
        if wakeup is not None:
            self._idle_wakeup = None
            wakeup.succeed()
        return done

    def stall(self, duration_ns: int) -> Event:
        """Occupy the core with non-useful work for ~``duration_ns``.

        Fault-injection hook: models a hypervisor-level hiccup (SMI, host
        scheduler preemption) pinning the core.  Queued at high priority so
        the stall starts as soon as the in-flight work item finishes;
        pending useful work waits behind it.
        """
        if duration_ns < 0:
            raise ValueError(f"negative stall duration: {duration_ns}")
        cycles = int(round(duration_ns * self.ghz))
        return self.execute(cycles, useful=False, tag="stall",
                            high_priority=True)

    @property
    def queue_length(self) -> int:
        return len(self._high) + len(self._normal)

    def energy_joules(self) -> float:
        """Energy consumed so far under this core's idle policy.

        Useful work always burns ``BUSY_WATTS``; what idle costs depends
        on the policy — a polling sidecore's idle is indistinguishable
        from work to the power supply, an mwait'ed core naps cheaply.
        """
        total_ns = self.env.now
        busy_ns = self.util.busy_ns
        useful_ns = self.util.useful_ns
        idle_ns = total_ns - busy_ns
        spin_ns = busy_ns - useful_ns  # poll-mode idle accounted as busy
        idle_watts = {"halt": self.HALT_IDLE_WATTS,
                      "poll": self.POLL_IDLE_WATTS,
                      "mwait": self.MWAIT_IDLE_WATTS}[self.idle_policy]
        joules_ns = (useful_ns * self.BUSY_WATTS
                     + spin_ns * self.POLL_IDLE_WATTS
                     + idle_ns * idle_watts)
        return joules_ns * 1e-9

    # -- server loop ---------------------------------------------------------

    def _serve(self) -> Generator[Event, Any, None]:
        env = self.env
        high = self._high
        normal = self._normal
        util = self.util
        ghz = self.ghz
        cycles_by_tag = self.cycles_by_tag
        while True:
            if not high and not normal:
                idle_start = env.now
                # execute() triggers and clears the wakeup.
                self._idle_wakeup = Event(env)
                yield self._idle_wakeup
                if self.poll_mode:
                    # The spinning poll loop burned the whole idle span.
                    util.account(env.now - idle_start, useful=False)
                if self.poll_dispatch_ns:
                    # Poll-loop notice latency, or mwait wakeup latency.
                    yield Timeout(env, self.poll_dispatch_ns)
                    if self.poll_mode:
                        util.account(self.poll_dispatch_ns, useful=False)
            cycles, useful, tag, done = (high or normal).popleft()
            self.busy = True
            # ns_for(cycles), inlined: execute() rejects negative cycles
            # and ghz > 0, so round() of the float quotient is already a
            # non-negative int and ns_for's max(0, int(...)) is a no-op.
            duration = round(cycles / ghz)
            if duration:
                yield Timeout(env, duration)
            util.account(duration, useful=useful)
            self.total_cycles += cycles
            cycles_by_tag[tag] = cycles_by_tag.get(tag, 0) + cycles
            # queue_length > 0, inlined.
            self.busy = bool(high) or bool(normal)
            done.succeed()


class CpuSocket:
    """A group of same-frequency cores (one physical CPU package)."""

    def __init__(self, env: Environment, name: str, core_count: int,
                 ghz: float) -> None:
        if core_count <= 0:
            raise ValueError(f"core count must be positive, got {core_count}")
        self.name = name
        self.ghz = ghz
        self.cores = [Core(env, f"{name}/core{i}", ghz)
                      for i in range(core_count)]

    def __len__(self) -> int:
        return len(self.cores)

    def __getitem__(self, index: int) -> Core:
        return self.cores[index]
