"""The vRIO I/O hypervisor: the software controlling the IOhost (§4.1).

A set of *workers*, each on its own sidecore, service encoded I/O arriving
on the IOhost's NICs — directly off the rings, never through a TCP/IP
stack.  Two properties from the paper are load-bearing:

* **Polling** — in the default configuration workers poll the NICs, so the
  IOhost incurs zero interrupts (Table 3 row "vrio").  The ``poll=False``
  variant ("vrio w/o poll") drives the same NICs with interrupts and pays
  4 IOhost interrupts per request-response.
* **Order-preserving steering** — for each virtual device D, while an
  unprocessed packet of D is assigned to worker W, subsequent packets of D
  steer to W too, preserving request order without out-of-order handling
  downstream.  Otherwise an idle/least-loaded worker is picked.

The pool also measures *contention* — the fraction of packets that found
their steered worker busy (Figure 8's right axis).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ...hw.cpu import Core
from ...hw.nic import NicFunction
from ...interpose import InterposerChain
from ...sim import Counter, Environment, Event
from ..costs import CostModel
from .transport import ChannelPacket

__all__ = ["WorkerPool", "NicPump"]

_STEERING_POLICIES = ("affinity", "random")


class WorkerPool:
    """Steers per-device work onto worker sidecores, preserving order.

    ``policy`` selects the steering discipline:

    * ``"affinity"`` (the paper's §4.1 policy) — work for a device with
      in-flight packets follows them to the same worker; otherwise the
      least-loaded worker is picked.  Per-device order is preserved.
    * ``"random"`` (ablation) — every packet is sprayed to a random
      worker; per-device order can be violated downstream.
    """

    def __init__(self, env: Environment, workers: List[Core],
                 policy: str = "affinity", rng: Optional[Any] = None) -> None:
        if not workers:
            raise ValueError("worker pool needs at least one core")
        if policy not in _STEERING_POLICIES:
            raise ValueError(f"unknown steering policy {policy!r}; valid "
                             f"policies: {', '.join(_STEERING_POLICIES)}")
        if policy == "random" and rng is None:
            raise ValueError(
                "policy='random' needs an rng threaded from the testbed's "
                "RngRegistry (a fixed ad-hoc seed would decouple steering "
                "from the master seed)")
        self.env = env
        self.workers = workers
        self.policy = policy
        self.rng = rng
        self._inflight: Dict[Any, Tuple[Core, int]] = {}
        self.steered = Counter("steered")
        self.contended = Counter("contended")
        self.affinity_hits = Counter("affinity_hits")

    def acquire(self, device_key: Any) -> Core:
        """Pick the worker for one unit of ``device_key`` work."""
        self.steered.add()
        entry = self._inflight.get(device_key)
        if self.policy == "random":
            worker = self.rng.choice(self.workers)
            count = entry[1] if entry is not None else 0
            self._inflight[device_key] = (worker, count + 1)
        elif entry is not None:
            worker, count = entry
            self.affinity_hits.add()
            self._inflight[device_key] = (worker, count + 1)
        else:
            worker = min(self.workers, key=lambda w: (w.queue_length, w.busy))
            self._inflight[device_key] = (worker, 1)
        if worker.busy or worker.queue_length > 0:
            self.contended.add()
        return worker

    def release(self, device_key: Any) -> None:
        worker, count = self._inflight[device_key]
        if count <= 1:
            del self._inflight[device_key]
        else:
            self._inflight[device_key] = (worker, count - 1)

    def contention_fraction(self) -> float:
        if self.steered.value == 0:
            return 0.0
        return self.contended.value / self.steered.value


class NicPump:
    """Connects one NIC function's Rx ring to a handler, in poll or
    interrupt mode.

    * Poll mode: a pump process blocks on the ring; the consuming worker
      core's poll-mode accounting models the spin.  No interrupts anywhere.
    * Interrupt mode: each NIC notification costs a (counted) IOhost
      interrupt plus handler cycles on ``irq_core`` before frames drain.

    The pump admits at most ``window`` frames into processing at once —
    the descriptor/buffer budget of the I/O hypervisor.  When processing
    backs up, frames stay in the Rx ring, and once *that* fills the NIC
    drops — which is exactly how the paper hit loss "in the wild" with a
    512-descriptor ring (§4.5).

    Handlers receive ``(payload, done)`` and must call ``done()`` when the
    frame's processing completes, releasing its window slot.
    """

    def __init__(self, env: Environment, fn: NicFunction,
                 handler: Callable[[Any, Callable[[], None]], None],
                 poll: bool, costs: CostModel,
                 irq_core: Optional[Core] = None,
                 irq_counter: Optional[Counter] = None,
                 window: int = 32) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive: {window}")
        self.env = env
        self.fn = fn
        self.handler = handler
        self.poll = poll
        self.costs = costs
        self.irq_core = irq_core
        self.irq_counter = irq_counter
        self.window = window
        self._in_flight = 0
        self._window_free: Optional[Event] = None
        if poll:
            fn.notify_mode = "poll"
            env.process(self._poll_pump(), name=f"pump:{fn.name}")
        else:
            if irq_core is None:
                raise ValueError("interrupt-mode pump needs an irq core")
            fn.notify_mode = "interrupt"
            fn.on_notify = self._on_interrupt

    def _admit(self, frame: Any) -> None:
        self._in_flight += 1
        self.handler(frame.payload, self._release)

    def _release(self) -> None:
        self._in_flight -= 1
        if self._window_free is not None and not self._window_free.triggered:
            self._window_free.succeed()

    def _wait_for_slot(self) -> Iterator[Event]:
        while self._in_flight >= self.window:
            self._window_free = self.env.event()
            yield self._window_free
            self._window_free: Optional[Event] = None

    def _poll_pump(self) -> Iterator[Event]:
        while True:
            if self._in_flight >= self.window:
                yield from self._wait_for_slot()
            frame = yield self.fn.rx_ring.get()
            self._admit(frame)

    def _on_interrupt(self) -> None:
        if self.irq_counter is not None:
            self.irq_counter.add()
        self.env.process(self._irq_drain(), name=f"irq:{self.fn.name}")

    def _irq_drain(self) -> Iterator[Event]:
        assert self.irq_core is not None  # enforced in __init__
        yield self.irq_core.execute(self.costs.host_irq_cycles,
                                    tag="iohost_irq", high_priority=True)
        while True:
            if self._in_flight >= self.window:
                yield from self._wait_for_slot()
            ok, frame = self.fn.rx_ring.try_get()
            if not ok:
                break
            self._admit(frame)
        self.fn.rearm()
