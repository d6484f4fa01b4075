"""One host-side datapath for the six locally serviced I/O models.

Every host-side design of Table 3, and each post-paper contender placed
in the same space (DESIGN §14), walks one virtio-shaped sequence: the
guest posts a request, a back end serves it, and the guest learns of the
completion.  The designs differ in a few columns only, which each model
declares on a :class:`HostModel` subclass:

* ``placement`` — who runs the back end: a vhost I/O core (``"vhost"``),
  sidecores shared round-robin (``"sidecores"``), one offload engine
  (``"engine"``), a per-VM core that only polls completions (``"poll"``),
  or nobody (``"none"``).  The first three put host software on every
  request, which is what makes a model interposable;
* ``notify`` — how the guest learns of a completion: an ``"injection"``
  (whose EOI traps), an exitless ``"ipi"`` or a ``"posted"`` interrupt;
* ``nic_mode`` — ``"interrupt"`` (NIC events interrupt the back-end
  core) or ``"eli"`` (they bypass the host);
* ``kick`` — how a posted request reaches the back end: an ``"exit"``,
  ``"none"`` (the back end polls the ring) or a ``"doorbell"`` latency;
* cost terms, read from ``self.costs`` in the model's ``__init__``, and
  the names of its processes, NIC functions, span and execute tags.

Declarations are resolved at construction and attach time, so the
per-message paths make the same calls as a hand-written model.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..guest.vm import Vm
from ..hw.cpu import Core
from ..hw.nic import Nic
from ..hw.storage import BlockRequest, StorageDevice
from ..interpose import InterposerChain
from ..net.frame import EthernetFrame, STANDARD_MTU
from ..sim import Counter, Environment, Event
from ..virtio import VirtioRequest, Virtqueue
from .base import IoEventStats, NetMessage, NetPort, message_wire_bytes
from .costs import CostModel, DEFAULT_COSTS
from .registry import (
    Capabilities,
    ConsolidationWiring,
    ModelInfo,
    SimpleWiring,
    register_model,
)
from .vrio.reliability import BlockDeviceError

__all__ = ["HostModel", "HostBlockHandle", "register_host_model"]

_BACKENDS = ("vhost", "sidecores", "engine")
_BOTH = ("simple", "consolidation")
_TXQ_COUNTERS = ("kicks", "kicks_suppressed", "posted", "completed",
                 "full_rejections")


class _VmPath:
    """One attached VM's slice of the datapath, resolved at attach time."""

    __slots__ = ("vm", "fn", "port", "vq", "core", "deliver", "tx_name",
                 "backend_tx_name", "txc_name", "rx_name", "blk_name")

    def __init__(self, model: "HostModel", vm: Vm, fn: Any,
                 vq: Optional[Virtqueue], core: Optional[Core]) -> None:
        self.vm = vm
        self.fn = fn
        self.vq = vq
        self.core = core
        self.deliver = (vm.deliver_interrupt_injected
                        if model.notify == "injection"
                        else vm.deliver_interrupt_exitless)
        prefix = model.prefix
        self.tx_name = f"{prefix}-tx:{vm.name}"
        self.backend_tx_name = f"{prefix}-{model.backend_tx}-tx:{vm.name}"
        self.txc_name = f"{prefix}-txc:{vm.name}"
        self.rx_name = f"{prefix}-rx:{vm.name}"
        self.blk_name = f"{prefix}-blk:{vm.name}"


class HostBlockHandle:
    """Workload-facing block device of one VM under a host-side model."""

    def __init__(self, model: "HostModel", path: _VmPath,
                 device: StorageDevice) -> None:
        self.model = model
        self.vm = path.vm
        self.device = device
        self._path = path

    def submit(self, request: BlockRequest) -> Event:
        """Issue a block request; the event triggers after the guest has
        handled the completion interrupt and reaped the ring."""
        done = self.model.env.event()
        self.model.env.process(
            self.model._blk_path(self._path, self.device, request, done),
            name=self._path.blk_name)
        return done


class HostModel:
    """The shared datapath; subclasses declare Table 3's columns."""

    name = ""
    placement = "none"
    notify = "posted"
    nic_mode = "eli"
    kick: Optional[str] = None
    interposable = False     # derived from ``placement``
    # Names: processes, NIC functions (defaults to ``prefix``), the
    # back-end tx process infix, the service span and execute tags.
    prefix = ""
    function_prefix = ""
    backend_tx = ""
    span = ""
    service_tag = ""
    blk_tag = ""

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls.interposable = cls.placement in _BACKENDS

    def __init__(self, env: Environment, nic: Optional[Nic],
                 cores: List[Core], costs: CostModel = DEFAULT_COSTS,
                 stats: Optional[IoEventStats] = None,
                 interposers: Optional[InterposerChain] = None,
                 mtu: int = STANDARD_MTU,
                 tracer: Optional[Any] = None) -> None:
        self.env = env
        self.nic = nic
        self.costs = costs
        self.stats = stats if stats is not None else IoEventStats(self.name)
        self.mtu = mtu
        self.tracer = tracer  # optional repro.sim.trace.Tracer
        if self.interposable:
            self.interposers = (interposers if interposers is not None
                                else InterposerChain())
        self._cores = cores
        self._paths: Dict[Vm, _VmPath] = {}
        self._backend = self.interposable
        self._kick_exit = self.kick == "exit"
        self._host_irq = self.nic_mode == "interrupt"
        # Cost terms, which subclasses set from ``self.costs``: delays in
        # ns, back-end (fixed, per-byte) cycles per net message and per
        # block request, and the (cycles, tag) each completion charges on
        # the service core.
        self._app_dilation = 1.0
        self._sched_delay_ns: Optional[int] = None
        self._doorbell_ns: Optional[int] = None
        self._service: Tuple[Any, Any] = (0, 0)
        self._blk_service: Tuple[Any, Any] = (0, 0)
        self._blk_submit = (self.costs.guest_blk_per_req_cycles
                            + self.costs.ring_op_cycles)
        self._rx_done = self._tx_done = self._blk_done = None
        # Counters the placement implies, plus nvme_pt's submissions.
        self.polled_events = self.offloaded_requests = None
        self.engine_dma_bytes = self._submitted = None
        if self.placement == "poll":
            self.polled_events = Counter("polled_events")
        elif self.placement == "engine":
            self.offloaded_requests = Counter("offloaded_requests")
            self.engine_dma_bytes = Counter("engine_dma_bytes")

    # -- control plane ---------------------------------------------------------

    def register_telemetry(self, namespace: Any) -> None:
        """Register this model's instruments into a metrics namespace."""
        namespace.register_gauge("attached_vms",
                                 lambda m=self: len(m._paths))
        for vm, path in self._paths.items():
            if path.vq is not None:
                ns = namespace.namespace(f"txq.{vm.name}")
                for counter in _TXQ_COUNTERS:
                    ns.register_counter(counter, getattr(path.vq, counter))
        if self.polled_events is not None:
            namespace.register_gauge("polling_cores",
                                     lambda m=self: len(m._paths))
            namespace.register_counter("polled_events", self.polled_events)
        if self.offloaded_requests is not None:
            namespace.register_counter("offloaded_requests",
                                       self.offloaded_requests)
            namespace.register_counter("engine_dma_bytes",
                                       self.engine_dma_bytes)
            namespace.register_gauge("engine_queue_length",
                                     lambda m=self: m._cores[0].queue_length)

    def add_interposer(self, interposer: Any) -> None:
        if not self.interposable:
            raise NotImplementedError(
                f"{self.name} bypasses the host on the data path: "
                "interposition is impossible, as with SRIOV (§2)")
        self.interposers.add(interposer)

    def sidecore_for(self, vm: Vm) -> Optional[Core]:
        """The core serving ``vm``'s back end (None without one)."""
        return self._paths[vm].core

    def spread_vms(self, cores: List[Core]) -> None:
        """Re-place the attached VMs round-robin over ``cores``, in
        attach order; each VM's next request runs on its new core."""
        for index, path in enumerate(self._paths.values()):
            path.core = cores[index % len(cores)]

    def _place(self, vm: Vm) -> Optional[Core]:
        index = len(self._paths)
        if self.placement == "sidecores":
            return self._cores[index % len(self._cores)]
        if self.placement == "poll":
            if index >= len(self._cores):
                raise ValueError(
                    f"no polling core left for {vm.name}: {self.name} needs "
                    "one dedicated host core per VM")
            return self._cores[index]
        return self._cores[0] if self._cores else None

    def attach_vm(self, vm: Vm, nic: Optional[Nic] = None, *,
                  mac: Optional[Any] = None,
                  sidecore: Optional[Core] = None) -> NetPort:
        """Create the VM's net device on ``nic`` (default: the model's
        own); returns its port.  ``mac`` keeps a vRIO client's F address
        when it falls back to local virtio (§4.6); ``sidecore`` pins the
        back end to one core instead of the placement's choice."""
        if vm in self._paths:
            raise ValueError(f"{vm.name} already attached")
        nic = nic if nic is not None else self.nic
        if nic is None:
            raise ValueError(f"{self.name} needs a NIC to attach {vm.name}")
        core = sidecore if sidecore is not None else self._place(vm)
        vm.stats = self.stats
        fn = nic.create_function(
            f"{self.function_prefix or self.prefix}-{vm.name}", mac=mac,
            notify_mode=self.nic_mode)
        vq = None
        if self.kick in ("exit", "none"):
            vq = Virtqueue(self.env, name=f"{vm.name}.txq")
            if self.kick == "none":
                vq.disable_kicks()  # the back end polls
        path = _VmPath(self, vm, fn, vq, core)
        fn.on_notify = lambda p=path: self._on_nic_rx(p)
        fn.on_tx_complete = lambda p=path: self._on_tx_complete(p)
        path.port = NetPort(
            self.env, vm, fn.mac,
            transmit=lambda msg, p=path: self.env.process(
                self._guest_tx(p, msg), name=p.tx_name),
            app_dilation=self._app_dilation)
        self._paths[vm] = path
        return path.port

    def attach_block_device(self, vm: Vm,
                            device: StorageDevice) -> HostBlockHandle:
        if vm not in self._paths:
            raise ValueError(f"attach_vm({vm.name}) first")
        return HostBlockHandle(self, self._paths[vm], device)

    # -- transmit ----------------------------------------------------------------

    def _guest_tx(self, path: _VmPath, message: NetMessage) -> Iterator[Event]:
        c = self.costs
        vm = path.vm
        if self.tracer:
            self.tracer.point(message.message_id, "guest_tx",
                              vm=vm.name, bytes=message.size_bytes)
        cycles = int(c.guest_net_per_msg_cycles
                     + c.guest_net_per_byte_cycles * message.size_bytes
                     + c.ring_op_cycles)
        yield vm.vcpu.execute(cycles, tag="net_tx")
        if path.vq is not None:
            request = VirtioRequest(kind="net_tx", payload=message,
                                    size_bytes=message.size_bytes)
            if path.vq.add_avail(request):
                # The kick hypercall traps: Table 3's synchronous exit.
                yield vm.sync_exit()
        elif self._doorbell_ns is not None:
            # A posted PCIe write into the back end: latency, no exit.
            yield self.env.timeout(self._doorbell_ns)
        if self._backend:
            self.env.process(self._backend_tx(path, message),
                             name=path.backend_tx_name)
            return
        # Direct assignment: the guest puts the frame on its own function.
        fn = path.fn
        frame = EthernetFrame(
            src=fn.mac, dst=message.dst, payload=message,
            payload_bytes=message_wire_bytes(message.size_bytes, self.mtu),
            kind=message.kind, created_ns=self.env.now)
        fn.transmit(frame, completion_interrupt=True)

    def _backend_tx(self, path: _VmPath,
                    message: NetMessage) -> Iterator[Event]:
        core = path.core
        if self._sched_delay_ns is not None:
            # A vhost thread must be scheduled in before it can serve.
            yield self.env.timeout(self._sched_delay_ns)
        vq = path.vq
        if vq is not None:
            ok, _request = vq.try_get_avail()
            if not ok:
                return
            if self._kick_exit:
                vq.kick_serviced()
        if not self.interposers.admit(message):
            return
        span = None
        if self.tracer:
            span = self.tracer.begin(message.message_id, self.span,
                                     core=core.name, direction="tx")
        if self.offloaded_requests is not None:
            self.offloaded_requests.add()
            self.engine_dma_bytes.add(message.size_bytes)
        fixed, per_byte = self._service
        cycles = int(fixed + per_byte * message.size_bytes
                     + self.interposers.cycles(message.size_bytes,
                                               message.kind))
        yield core.execute(cycles, tag=self.service_tag)
        fn = path.fn
        frame = EthernetFrame(
            src=fn.mac, dst=message.dst, payload=message,
            payload_bytes=message_wire_bytes(message.size_bytes, self.mtu),
            kind=message.kind, created_ns=self.env.now)
        fn.transmit(frame, completion_interrupt=True)
        if span is not None:
            self.tracer.end(span)

    def _on_tx_complete(self, path: _VmPath) -> None:
        if self._host_irq:
            self.stats.host_interrupts.add()
        if path.core is None:
            # ELI routes the send-complete interrupt straight to the guest.
            path.deliver()
            return
        self.env.process(self._tx_complete_path(path), name=path.txc_name)

    def _tx_complete_path(self, path: _VmPath) -> Iterator[Event]:
        core = path.core
        if self._host_irq:
            yield core.execute(self.costs.host_irq_cycles, tag="host_irq",
                               high_priority=True)
        if self._tx_done is not None:
            if self.polled_events is not None:
                self.polled_events.add()
            cycles, tag = self._tx_done
            yield core.execute(cycles, tag=tag)
        # The guest's "response sent" interrupt, 2nd of Table 3's pair.
        path.deliver()

    # -- receive -------------------------------------------------------------------

    def _on_nic_rx(self, path: _VmPath) -> None:
        if self._host_irq:
            self.stats.host_interrupts.add()
        self.env.process(self._rx_path(path), name=path.rx_name)

    def _rx_path(self, path: _VmPath) -> Iterator[Event]:
        c = self.costs
        vm, fn, port, core = path.vm, path.fn, path.port, path.core
        if self._host_irq:
            yield core.execute(c.host_irq_cycles, tag="host_irq",
                               high_priority=True)
        if self._sched_delay_ns is not None:
            yield self.env.timeout(self._sched_delay_ns)
        while True:
            ok, frame = fn.rx_ring.try_get()
            if not ok:
                break
            message: NetMessage = frame.payload
            if core is not None:
                if self._backend and not self.interposers.admit(message):
                    continue
                if self.engine_dma_bytes is not None:
                    self.engine_dma_bytes.add(message.size_bytes)
                span = None
                if self.tracer:
                    span = self.tracer.begin(message.message_id, self.span,
                                             core=core.name, direction="rx")
                if self._backend:
                    fixed, per_byte = self._service
                    cycles = int(fixed + per_byte * message.size_bytes
                                 + self.interposers.cycles(
                                     message.size_bytes, message.kind))
                    yield core.execute(cycles, tag=self.service_tag)
                if self._rx_done is not None:
                    if self.polled_events is not None:
                        self.polled_events.add()
                    cycles, tag = self._rx_done
                    yield core.execute(cycles, tag=tag)
                if span is not None:
                    self.tracer.end(span)
            extra = int(c.guest_net_per_msg_cycles
                        + c.guest_net_per_byte_cycles * message.size_bytes)
            yield path.deliver(extra_cycles=extra)
            if self.tracer:
                self.tracer.point(message.message_id, "guest_deliver",
                                  vm=vm.name)
            port.deliver(message)
        fn.rearm()

    # -- block -----------------------------------------------------------------------

    def _blk_path(self, path: _VmPath, device: StorageDevice,
                  request: BlockRequest, done: Event) -> Iterator[Event]:
        vm, core = path.vm, path.core
        request.issued_ns = self.env.now
        if self._submitted is not None:
            self._submitted.add()
        if self._backend:
            # Guest: block layer + ring post; the back end drives the device.
            yield vm.vcpu.execute(self._blk_submit, tag="blk_submit")
            if self._kick_exit:
                yield vm.sync_exit()  # the block kick traps
            elif self._doorbell_ns is not None:
                yield self.env.timeout(self._doorbell_ns)
            if self._sched_delay_ns is not None:
                yield self.env.timeout(self._sched_delay_ns)
            if self.offloaded_requests is not None:
                self.offloaded_requests.add()
                self.engine_dma_bytes.add(request.size_bytes)
            kind = "blk_read" if request.op == "read" else "blk_write"
            fixed, per_byte = self._blk_service
            cycles = int(fixed + per_byte * request.size_bytes
                         + device.cpu_cycles(request)
                         + self.interposers.cycles(request.size_bytes, kind))
            yield core.execute(cycles, tag=self.blk_tag)
        else:
            # Direct submission: the guest drives the whole device stack.
            yield vm.vcpu.execute(
                int(self._blk_submit + device.cpu_cycles(request)),
                tag="blk_submit")
        yield device.submit(request)
        if self._blk_done is not None:
            if self.polled_events is not None:
                self.polled_events.add()
            cycles, tag = self._blk_done
            yield core.execute(cycles, tag=tag)
        # The completion interrupt, then the guest block layer reaps.
        yield path.deliver(extra_cycles=self.costs.ring_op_cycles)
        # A device error reaches the guest as a failed completion, as
        # virtio-blk's VIRTIO_BLK_S_IOERR does: no host-side back end
        # retries it (only vRIO does, §4.5).
        if request.meta.get("device_error"):
            done.fail(BlockDeviceError(request, attempts=1))
        else:
            done.succeed(request)

    # -- registry wiring -----------------------------------------------------

    @classmethod
    def _for_host(cls, ctx: Any, vmhost: Any, nic: Nic,
                  n_vms: int) -> Tuple["HostModel", List[Core]]:
        """One instance on ``vmhost``, with the cores its placement needs;
        ``nic`` is its external NIC."""
        placement = cls.placement
        if placement == "none":
            return cls(ctx.env, costs=ctx.costs, stats=ctx.stats), []
        if placement == "vhost":
            cores = [vmhost.new_io_core()]
        else:
            # A poll core per VM: the spec's sidecore count does not apply.
            count = {"sidecores": ctx.spec.sidecores, "engine": 1}.get(
                placement, n_vms)
            cores = [vmhost.new_sidecore() for _ in range(count)]
        shared = placement in ("sidecores", "poll")
        return cls(ctx.env, nic, cores if shared else cores[0],
                   costs=ctx.costs, stats=ctx.stats), cores

    @classmethod
    def _build_simple(cls, ctx: Any) -> SimpleWiring:
        nic = ctx.vmhost.new_nic("external")
        ctx.wire_loadgen(nic)
        model, cores = cls._for_host(ctx, ctx.vmhost, nic, len(ctx.vms))
        ports = [model.attach_vm(vm, nic) for vm in ctx.vms]
        return SimpleWiring(model=model, ports=ports, service_cores=cores)

    @classmethod
    def _build_consolidation(cls, ctx: Any) -> ConsolidationWiring:
        # One model instance, and its service cores, per VMhost.
        wiring = ConsolidationWiring()
        for h in range(ctx.spec.n_vmhosts):
            vmhost = ctx.new_vmhost(h)
            nic = vmhost.new_nic("external")  # unused by block workloads
            model, cores = cls._for_host(ctx, vmhost, nic,
                                         ctx.spec.vms_per_host)
            wiring.models.append(model)
            wiring.service_cores.extend(cores)
            for _ in range(ctx.spec.vms_per_host):
                vm = vmhost.new_vm()
                wiring.vms.append(vm)
                wiring.ports.append(model.attach_vm(vm, nic))
                wiring.model_by_vm[vm.name] = model
        return wiring


def register_host_model(cls: Any, description: str,
                        ranks: Tuple[int, int, int], block: bool = True,
                        topologies: Tuple[str, ...] = _BOTH) -> None:
    """Register ``cls`` with builders for its topologies; ``ranks`` are
    its (tab, throughput, block) ranks.  Polling and exitlessness follow
    from its declaration: a back end on cores of its own polls, and a
    datapath with no trapped kick or completion is exitless."""
    capabilities = Capabilities(
        block=block, topologies=topologies,
        polling=cls.placement in ("sidecores", "engine", "poll"),
        exitless=cls.notify in ("ipi", "posted") and cls.kick != "exit")
    tab_rank, throughput_rank, block_rank = ranks
    register_model(ModelInfo(
        name=cls.name, description=description, capabilities=capabilities,
        build_simple=cls._build_simple,
        build_consolidation=(cls._build_consolidation
                             if capabilities.consolidation else None),
        tab_rank=tab_rank, throughput_rank=throughput_rank,
        block_rank=block_rank))
