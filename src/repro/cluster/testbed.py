"""Declarative testbed construction for the paper's experimental setups (§5).

One :class:`TestbedSpec` describes any of the paper's topologies as pure
data — model, topology, host/VM counts, knobs, cost model, and (for fault
campaigns) a :class:`repro.faults.FaultPlan` — and :func:`build_testbed`
assembles it.  Because specs are plain serializable data, a campaign
(spec × fault plan × seed) can be cached, shipped to worker processes, and
reproduced bit-for-bit.

The paper's setups are topologies of one spec:

* ``simple`` — Figure 6: one VMhost, one load generator, and — for
  remote models — an IOhost interposed between them.  Core budgets follow
  the paper: N+1 active cores for baseline/Elvis/vRIO (the +1 being the
  sidecore, local or remote) and N for the optimum.
* ``scalability`` — Figure 13: several logical VMhosts, each with its own
  load generator, all served by one IOhost.
* ``switched`` — §4.6: client traffic through a rack switch that can
  re-steer F addresses to the VMhost after an IOhost failure.
* ``consolidation`` — Figure 15/16: several VMhosts running block
  workloads on ramdisks — local sidecores under Elvis/baseline,
  consolidated remote sidecores under vRIO.
* ``racks`` — several §5 racks joined by a leaf-spine fabric.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional

from ..guest.vm import Vm
from ..hw.cpu import Core
from ..hw.link import Link
from ..iomodels import (
    DEFAULT_COSTS,
    IoEventStats,
    NetPort,
    VrioModel,
)
from ..iomodels.base import ExternalEndpoint
from ..iomodels.costs import CostModel
from ..iomodels.registry import get_model, model_names
from ..hw.storage import StorageDevice, make_ramdisk
from ..net.frame import FAKE_TCPIP_HEADER_BYTES, VRIO_HEADER_BYTES
from ..sim import Environment, RngRegistry
from ..telemetry import bind_testbed, register_storage_device
from .host import IoHostMachine, LoadGenHost, VmHostMachine

__all__ = [
    "Testbed",
    "TestbedSpec",
    "SimpleTopologyContext",
    "ConsolidationContext",
    "build_testbed",
    "MODEL_NAMES",
    "TOPOLOGIES",
]

# Derived from the model registry (importing ..iomodels above registered
# every model module): the catalog is the single source of truth, this
# tuple is a snapshot taken at import time for the historical name.
MODEL_NAMES = model_names()
# TOPOLOGIES is derived from _TOPOLOGY_BUILDERS below — one registry,
# so the error message for an unknown topology can never drift from the
# set of builders that actually exist.


@dataclass
class Testbed:
    """Everything an experiment needs from one assembled setup."""

    env: Environment
    costs: CostModel
    model_name: str
    vms: List[Vm]
    ports: List[NetPort]
    clients: List[ExternalEndpoint]
    stats: IoEventStats
    service_cores: List[Core]           # sidecores / io cores / workers
    rng: RngRegistry
    vmhosts: List[VmHostMachine] = field(default_factory=list)
    iohost: Optional[IoHostMachine] = None
    loadgens: List[LoadGenHost] = field(default_factory=list)
    models: List[object] = field(default_factory=list)
    links: Dict[str, Link] = field(default_factory=dict)
    channels: List[object] = field(default_factory=list)   # VmhostChannels
    storage_devices: List[StorageDevice] = field(default_factory=list)
    spec: Optional["TestbedSpec"] = None
    fault_injector: Optional[object] = None
    _model_by_vm: Dict[str, object] = field(default_factory=dict)

    @property
    def model(self):
        return self.models[0]

    def attach_ramdisk(self, vm: Vm, capacity_bytes: int = 1 << 30):
        """Give ``vm`` a 1 GB ramdisk under this setup's I/O model.

        Local to the VMhost for baseline/Elvis; resident at the IOhost for
        vRIO (§5 *Making a Local Device Remote*).
        """
        device = make_ramdisk(self.env, name=f"ramdisk-{vm.name}",
                              capacity_bytes=capacity_bytes)
        return self.attach_block_device(vm, device)

    def attach_block_device(self, vm: Vm, device: StorageDevice):
        """Attach ``device`` to ``vm`` under whichever model owns the VM.

        The single block-attachment path shared by every topology, all
        I/O models, and the fault injector: the owning model is resolved
        per VM, so consolidation setups route each VM to its own Elvis /
        baseline instance while vRIO VMs share the consolidated IOhost.
        """
        model = self._model_by_vm.get(vm.name)
        if model is None:
            raise NotImplementedError(
                f"model {self.model_name!r} does not support host-managed "
                "block devices")
        handle = model.attach_block_device(vm, device)
        telemetry = getattr(self, "telemetry", None)
        if telemetry is not None:
            register_storage_device(telemetry.registry, device)
        self.storage_devices.append(device)
        return handle


@dataclass(frozen=True)
class TestbedSpec:
    """A declarative, serializable description of one experimental setup.

    Fields that only some topologies consume (``channel_loss``,
    ``model_numa``, …) are ignored by the others, matching the historical
    builder signatures.  ``sidecores`` means: vRIO worker count (total, at
    the IOhost; per rack in the racks topology), Elvis sidecore count /
    baseline I/O core count (per host in the consolidation topology).

    ``n_racks``/``n_spines``/``oversubscription`` shape the ``racks``
    topology only: N racks of ``n_vmhosts`` VMhosts each, every rack with
    its own IOhost and load generator hanging off a leaf switch, leaves
    joined by ``n_spines`` spines with trunk bandwidth provisioned at the
    given edge oversubscription ratio (see :mod:`repro.hw.fabric`).
    """

    model: str = "vrio"
    topology: str = "simple"
    n_vmhosts: int = 1
    vms_per_host: int = 1
    sidecores: int = 1
    with_clients: bool = True
    seed: int = 0
    channel_loss: float = 0.0
    channel_rx_ring: int = 4096
    channel_mtu: int = 8100
    pump_window: int = 32
    steering_policy: str = "affinity"
    worker_idle_policy: Optional[str] = None
    model_numa: bool = True
    n_racks: int = 1
    n_spines: int = 1
    oversubscription: float = 1.0
    costs: Optional[CostModel] = None
    fault_plan: Optional[object] = None     # repro.faults.FaultPlan

    @property
    def n_vms(self) -> int:
        return self.n_vmhosts * self.vms_per_host

    def copy(self, **overrides) -> "TestbedSpec":
        """A copy of this spec with selected fields replaced."""
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """JSON-serializable form (round-trips via :meth:`from_dict`)."""
        data = {
            "model": self.model,
            "topology": self.topology,
            "n_vmhosts": self.n_vmhosts,
            "vms_per_host": self.vms_per_host,
            "sidecores": self.sidecores,
            "with_clients": self.with_clients,
            "seed": self.seed,
            "channel_loss": self.channel_loss,
            "channel_rx_ring": self.channel_rx_ring,
            "channel_mtu": self.channel_mtu,
            "pump_window": self.pump_window,
            "steering_policy": self.steering_policy,
            "worker_idle_policy": self.worker_idle_policy,
            "model_numa": self.model_numa,
            "n_racks": self.n_racks,
            "n_spines": self.n_spines,
            "oversubscription": self.oversubscription,
            "costs": None if self.costs is None else asdict(self.costs),
            "fault_plan": (None if self.fault_plan is None
                           else self.fault_plan.to_dict()),
        }
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TestbedSpec":
        data = dict(data)
        costs = data.get("costs")
        if costs is not None and not isinstance(costs, CostModel):
            data["costs"] = CostModel(**costs)
        plan = data.get("fault_plan")
        if plan is not None and isinstance(plan, dict):
            from ..faults.plan import FaultPlan
            data["fault_plan"] = FaultPlan.from_dict(plan)
        return cls(**data)


def build_testbed(spec: TestbedSpec) -> Testbed:
    """Assemble the testbed a :class:`TestbedSpec` describes.

    Validates the spec against the model registry's capability flags,
    dispatches on topology, binds telemetry, and — when the spec carries
    a fault plan — arms a :class:`repro.faults.FaultInjector` so the
    planned faults fire as simulation events during the run.
    """
    for name in ("n_vmhosts", "vms_per_host", "sidecores", "n_racks",
                 "n_spines"):
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
    info = get_model(spec.model)
    if spec.topology not in _TOPOLOGY_BUILDERS:
        raise ValueError(
            f"unknown topology {spec.topology!r}; "
            f"valid topologies: {', '.join(TOPOLOGIES)}")
    if spec.topology not in info.capabilities.topologies:
        if spec.topology == "consolidation":
            raise ValueError(f"{spec.model} is not part of this experiment")
        # The remaining multi-host topologies are hard-wired IOhost
        # studies (scalability/switched/racks), which only vRIO declares.
        raise ValueError(
            f"the {spec.topology} topology is vRIO-only, got {spec.model!r}")
    if spec.topology == "simple" and spec.n_vmhosts != 1:
        raise ValueError("the simple topology has exactly one VMhost")
    if spec.n_vmhosts <= 0 or spec.vms_per_host <= 0:
        raise ValueError("need positive host and VM counts")
    if spec.sidecores <= 0:
        raise ValueError(f"need at least one sidecore, got {spec.sidecores}")
    # Every TSO fragment on the vRIO channel carries both headers inside
    # the MTU, so it needs at least one payload byte beyond them.
    min_channel_mtu = VRIO_HEADER_BYTES + FAKE_TCPIP_HEADER_BYTES + 1
    if spec.model.startswith("vrio") and spec.channel_mtu < min_channel_mtu:
        raise ValueError(
            f"channel MTU must be at least {min_channel_mtu} bytes (the "
            f"vRIO and fake TCP/IP headers plus one payload byte), got "
            f"{spec.channel_mtu}")
    if spec.topology == "racks":
        if spec.n_racks <= 0 or spec.n_spines <= 0:
            raise ValueError(
                f"need positive rack and spine counts, got "
                f"{spec.n_racks} racks × {spec.n_spines} spines")
        if spec.oversubscription <= 0:
            raise ValueError(
                f"oversubscription ratio must be positive: "
                f"{spec.oversubscription}")

    builder = _TOPOLOGY_BUILDERS[spec.topology]
    testbed = builder(spec)
    testbed.spec = spec
    bind_testbed(testbed)
    if spec.fault_plan:
        from ..faults.inject import FaultInjector
        testbed.fault_injector = FaultInjector(testbed,
                                               spec.fault_plan).arm()
    return testbed


class _HostFactories:
    """The IOhost and link factories both builder contexts share.

    Holds no fields: each context dataclass declares ``env``, ``costs``,
    ``rng``, ``iohost`` and ``links`` itself.
    """

    def new_iohost(self, name: str = "iohost") -> IoHostMachine:
        """Create the setup's IOhost (remote-sidecore models only)."""
        self.iohost = IoHostMachine(self.env, name, self.costs)
        return self.iohost

    def new_link(self, name: str, gbps: float, loss: float = 0.0) -> Link:
        """A named fabric link; lossy links draw from ``{name}-loss``."""
        link = Link(self.env, gbps=gbps,
                    propagation_ns=self.costs.propagation_ns,
                    loss_probability=loss,
                    rng=self.rng.stream(f"{name}-loss") if loss else None,
                    name=name)
        self.links[name] = link
        return link


@dataclass
class SimpleTopologyContext(_HostFactories):
    """What a registered model's simple-topology builder works with.

    The testbed creates the VMhost and its VMs first (their creation
    order is part of the reproducible surface), then hands this context
    to the model's ``build_simple``.  The builder wires NICs, service
    cores, and — for remote models — an IOhost and channel links, using
    only the factories here, so model modules never import the cluster
    layer.
    """

    env: Environment
    spec: TestbedSpec
    costs: CostModel
    stats: IoEventStats
    rng: RngRegistry
    vmhost: VmHostMachine
    vms: List[Vm]
    iohost: Optional[IoHostMachine] = None
    lg_endpoint: Optional[object] = None
    links: Dict[str, Link] = field(default_factory=dict)
    channels: List[object] = field(default_factory=list)

    def wire_loadgen(self, nic) -> None:
        """Hang the load-generator link off ``nic`` (the model-facing
        side of the client fabric; the LoadGenHost itself is attached by
        the testbed afterwards iff the spec asks for clients)."""
        lg_link = Link(self.env, gbps=self.costs.link_gbps,
                       propagation_ns=self.costs.propagation_ns, name="lg")
        self.links["lg"] = lg_link
        nic.attach(lg_link.side_a)
        self.lg_endpoint = lg_link.side_b


@dataclass
class ConsolidationContext(_HostFactories):
    """What a registered model's consolidation builder works with.

    Unlike the simple topology, VMhosts and VMs are created *by* the
    builder (per-host wiring order differs across models), through the
    factories here.
    """

    env: Environment
    spec: TestbedSpec
    costs: CostModel
    stats: IoEventStats
    rng: RngRegistry
    vmhosts: List[VmHostMachine] = field(default_factory=list)
    iohost: Optional[IoHostMachine] = None
    links: Dict[str, Link] = field(default_factory=dict)
    channels: List[object] = field(default_factory=list)

    def new_vmhost(self, index: int) -> VmHostMachine:
        vmhost = VmHostMachine(self.env, f"vmhost{index}", self.costs)
        self.vmhosts.append(vmhost)
        return vmhost


def _wire_channel(model: VrioModel, links: Dict[str, Link],
                  vmhost: VmHostMachine, iohost: IoHostMachine,
                  link_name: str, iohost_label: str) -> object:
    """Join ``vmhost`` to ``iohost`` by a direct channel link and hand
    both NICs to the model; returns the model's per-VMhost channel."""
    link = Link(vmhost.env, gbps=vmhost.costs.channel_gbps,
                propagation_ns=vmhost.costs.propagation_ns, name=link_name)
    links[link_name] = link
    vmhost_nic = vmhost.new_nic("channel")
    vmhost_nic.attach(link.side_a)
    iohost_nic = iohost.new_nic(iohost_label)
    iohost_nic.attach(link.side_b)
    return model.connect_vmhost(vmhost.name, vmhost_nic, iohost_nic)


def _build_simple(spec: TestbedSpec) -> Testbed:
    """The Figure 6 setup for any registered model."""
    info = get_model(spec.model)
    n_vms = spec.vms_per_host
    costs = spec.costs if spec.costs is not None else DEFAULT_COSTS
    env = Environment()
    rng = RngRegistry(spec.seed)

    vmhost = VmHostMachine(env, "vmhost0", costs)
    vms = [vmhost.new_vm() for _ in range(n_vms)]
    stats = IoEventStats(spec.model)

    ctx = SimpleTopologyContext(env=env, spec=spec, costs=costs,
                                stats=stats, rng=rng, vmhost=vmhost, vms=vms)
    wiring = info.build_simple(ctx)

    loadgens: List[LoadGenHost] = []
    clients: List[ExternalEndpoint] = []
    if spec.with_clients:
        from ..hw.nic import Nic
        lg_nic = Nic(env, "loadgen/nic", endpoint=ctx.lg_endpoint)
        loadgen = LoadGenHost(env, "loadgen0", lg_nic, costs)
        loadgens.append(loadgen)
        clients = [loadgen.new_client_endpoint() for _ in range(n_vms)]

    # Models without host-managed block devices (the optimum) raise from
    # attach_block_device itself ("there is no such thing as an SRIOV
    # ramdisk"), so every model routes through the same map.
    model_by_vm = {vm.name: wiring.model for vm in vms}
    return Testbed(env=env, costs=costs, model_name=spec.model, vms=vms,
                   ports=wiring.ports, clients=clients, stats=stats,
                   service_cores=wiring.service_cores, rng=rng,
                   vmhosts=[vmhost], iohost=ctx.iohost, loadgens=loadgens,
                   models=[wiring.model], links=ctx.links,
                   channels=ctx.channels, _model_by_vm=model_by_vm)


def _build_scalability(spec: TestbedSpec) -> Testbed:
    """The Figure 13 topology: one IOhost serving several VMhosts, each
    paired with its own load generator (vRIO only)."""
    costs = spec.costs if spec.costs is not None else DEFAULT_COSTS
    env = Environment()
    rng = RngRegistry(spec.seed)
    stats = IoEventStats("vrio")

    iohost = IoHostMachine(env, "iohost", costs)
    worker_cores = [iohost.new_worker() for _ in range(spec.sidecores)]
    model = VrioModel(env, worker_cores, costs=costs, stats=stats)

    vms: List[Vm] = []
    ports: List[NetPort] = []
    clients: List[ExternalEndpoint] = []
    vmhosts: List[VmHostMachine] = []
    loadgens: List[LoadGenHost] = []
    links: Dict[str, Link] = {}
    channels: List[object] = []

    from ..hw.nic import Nic
    for h in range(spec.n_vmhosts):
        vmhost = VmHostMachine(env, f"vmhost{h}", costs, core_budget=8)
        vmhosts.append(vmhost)
        channel = _wire_channel(model, links, vmhost, iohost,
                                f"channel{h}", f"channel{h}")
        channels.append(channel)

        external_nic = iohost.new_nic(f"external{h}")
        lg_link = Link(env, gbps=costs.link_gbps,
                       propagation_ns=costs.propagation_ns, name=f"lg{h}")
        links[f"lg{h}"] = lg_link
        external_nic.attach(lg_link.side_a)
        lg_nic = Nic(env, f"loadgen{h}/nic", endpoint=lg_link.side_b)
        loadgen = LoadGenHost(env, f"loadgen{h}", lg_nic, costs,
                              model_numa=spec.model_numa)
        loadgens.append(loadgen)

        for _ in range(spec.vms_per_host):
            vm = vmhost.new_vm()
            vms.append(vm)
            ports.append(model.attach_vm(vm, channel, external_nic))
            clients.append(loadgen.new_client_endpoint())

    return Testbed(env=env, costs=costs, model_name="vrio", vms=vms,
                   ports=ports, clients=clients, stats=stats,
                   service_cores=worker_cores, rng=rng, vmhosts=vmhosts,
                   iohost=iohost, loadgens=loadgens, models=[model],
                   links=links, channels=channels,
                   _model_by_vm={vm.name: model for vm in vms})


def _build_switched(spec: TestbedSpec) -> Testbed:
    """The §4.6 fault-tolerant arrangement: client traffic flows through
    the rack switch, which steers each F address to the IOhost — and can
    re-steer it to the VMhost after an IOhost failure.

    Extras stashed on the returned testbed:

    * ``testbed.switch`` — the rack switch;
    * ``testbed.switch_ports`` — dict of the LG/IOhost/VMhost endpoints;
    * ``testbed.vmhost_fallback_nic`` — the VMhost's switch-facing NIC
      (where local virtio devices are created on failover);
    * ``testbed.fallback_io_core`` — a spare VMhost core for the local
      vhost service.
    """
    from ..hw.nic import Nic
    from ..hw.switch_fabric import Switch

    costs = spec.costs if spec.costs is not None else DEFAULT_COSTS
    env = Environment()
    rng = RngRegistry(spec.seed)
    stats = IoEventStats("vrio")

    switch = Switch(env, "rack-switch")
    vmhost = VmHostMachine(env, "vmhost0", costs)
    iohost = IoHostMachine(env, "iohost", costs)
    worker_cores = [iohost.new_worker() for _ in range(spec.sidecores)]
    model = VrioModel(env, worker_cores, costs=costs, stats=stats)

    # Direct channel link VMhost <-> IOhost (cheap wiring stays).
    links: Dict[str, Link] = {}
    channel = _wire_channel(model, links, vmhost, iohost, "channel",
                            "channel")

    # Everyone else hangs off the switch.
    lg_link = Link(env, gbps=costs.link_gbps,
                   propagation_ns=costs.propagation_ns, name="lg")
    lg_end = switch.add_port(lg_link)
    iohost_link = Link(env, gbps=costs.link_gbps,
                       propagation_ns=costs.propagation_ns, name="iohost")
    iohost_end = switch.add_port(iohost_link)
    vmhost_link = Link(env, gbps=costs.link_gbps,
                       propagation_ns=costs.propagation_ns, name="vmhost")
    vmhost_end = switch.add_port(vmhost_link)
    links.update(lg=lg_link, iohost=iohost_link, vmhost=vmhost_link)

    external_nic = iohost.new_nic("external")
    external_nic.attach(iohost_end)
    vmhost_fallback_nic = vmhost.new_nic("fallback")
    vmhost_fallback_nic.attach(vmhost_end)
    lg_nic = Nic(env, "loadgen/nic", endpoint=lg_end)
    loadgen = LoadGenHost(env, "loadgen0", lg_nic, costs)

    vms = [vmhost.new_vm() for _ in range(spec.vms_per_host)]
    ports = [model.attach_vm(vm, channel, external_nic) for vm in vms]
    clients = [loadgen.new_client_endpoint() for _ in range(spec.vms_per_host)]
    for port in ports:
        switch.learn(port.mac, iohost_link.side_a)
    for client in clients:
        switch.learn(client.mac, lg_link.side_a)

    testbed = Testbed(env=env, costs=costs, model_name="vrio", vms=vms,
                      ports=ports, clients=clients, stats=stats,
                      service_cores=worker_cores, rng=rng, vmhosts=[vmhost],
                      iohost=iohost, loadgens=[loadgen], models=[model],
                      links=links, channels=[channel],
                      _model_by_vm={vm.name: model for vm in vms})
    testbed.switch = switch
    testbed.switch_ports = {"loadgen": lg_link.side_a,
                            "iohost": iohost_link.side_a,
                            "vmhost": vmhost_link.side_a}
    testbed.vmhost_fallback_nic = vmhost_fallback_nic
    testbed.fallback_io_core = vmhost.new_io_core()
    return testbed


def _build_consolidation(spec: TestbedSpec) -> Testbed:
    """The Figure 15/16 topology: several VMhosts running block workloads.

    Host-local models (Elvis, baseline, …) get ``sidecores`` local
    service cores per VMhost; vRIO gets ``sidecores`` consolidated
    workers at one IOhost.  Per-model wiring lives with the model's
    registry entry.
    """
    info = get_model(spec.model)
    costs = spec.costs if spec.costs is not None else DEFAULT_COSTS
    env = Environment()
    rng = RngRegistry(spec.seed)
    stats = IoEventStats(spec.model)

    ctx = ConsolidationContext(env=env, spec=spec, costs=costs,
                               stats=stats, rng=rng)
    wiring = info.build_consolidation(ctx)

    return Testbed(env=env, costs=costs, model_name=spec.model,
                   vms=wiring.vms, ports=wiring.ports, clients=[],
                   stats=stats, service_cores=wiring.service_cores,
                   rng=rng, vmhosts=ctx.vmhosts, iohost=ctx.iohost,
                   loadgens=[], models=wiring.models, links=ctx.links,
                   channels=ctx.channels,
                   _model_by_vm=wiring.model_by_vm)


def _build_racks(spec: TestbedSpec) -> Testbed:
    """The multi-rack datacenter topology (ROADMAP item 2, vRIO only).

    ``n_racks`` racks, each a self-contained §5 rack: ``n_vmhosts``
    VMhosts with direct channel links to the rack's own IOhost (its
    workers come from ``sidecores``, interpreted per rack), plus a
    per-rack load generator.  Each rack's IOhost-external NIC and load
    generator hang off the rack's leaf switch; leaves are joined by a
    :class:`repro.hw.fabric.LeafSpineFabric` with ``n_spines`` spines at
    the spec's ``oversubscription`` ratio.

    Clients for rack *r*'s VMs live on rack *(r+1) mod N*'s load
    generator, so every request/response pair crosses the spine —
    single-rack fabrics keep clients local, everything else exercises
    the trunks.  Leaves statically know their locally attached MACs;
    the trunk direction is dynamically learned from the first (flooded)
    frames, exactly the L2 behaviour the fabric models.

    Extras stashed on the returned testbed: ``testbed.fabric`` (the
    :class:`LeafSpineFabric`) and ``testbed.iohosts`` (one per rack;
    ``testbed.iohost`` stays ``None``).
    """
    from ..hw.fabric import LeafSpineFabric
    from ..hw.nic import Nic

    costs = spec.costs if spec.costs is not None else DEFAULT_COSTS
    env = Environment()
    rng = RngRegistry(spec.seed)
    stats = IoEventStats("vrio")
    n_racks = spec.n_racks

    # Two host downlinks per leaf: the IOhost external NIC and the rack's
    # load generator.
    fabric = LeafSpineFabric(env, n_racks, spec.n_spines,
                             downlinks_per_leaf=2,
                             downlink_gbps=costs.link_gbps,
                             oversubscription=spec.oversubscription)

    vms: List[Vm] = []
    ports: List[NetPort] = []
    vmhosts: List[VmHostMachine] = []
    iohosts: List[IoHostMachine] = []
    loadgens: List[LoadGenHost] = []
    models: List[object] = []
    service_cores: List[Core] = []
    links: Dict[str, Link] = {}
    channels: List[object] = []
    model_by_vm: Dict[str, object] = {}
    rack_ports: List[List[NetPort]] = []
    lg_links: List[Link] = []

    for r in range(n_racks):
        iohost = IoHostMachine(env, f"rack{r}/iohost", costs)
        iohosts.append(iohost)
        workers = [iohost.new_worker() for _ in range(spec.sidecores)]
        service_cores.extend(workers)
        model = VrioModel(env, workers, costs=costs, stats=stats)
        models.append(model)

        ext_link = Link(env, gbps=costs.link_gbps,
                        propagation_ns=costs.propagation_ns,
                        name=f"r{r}ext")
        links[f"r{r}ext"] = ext_link
        external_nic = iohost.new_nic("external")
        external_nic.attach(fabric.host_port(r, ext_link))

        lg_link = Link(env, gbps=costs.link_gbps,
                       propagation_ns=costs.propagation_ns,
                       name=f"r{r}lg")
        links[f"r{r}lg"] = lg_link
        lg_end = fabric.host_port(r, lg_link)
        lg_nic = Nic(env, f"rack{r}/loadgen/nic", endpoint=lg_end)
        loadgen = LoadGenHost(env, f"rack{r}/loadgen", lg_nic, costs,
                              model_numa=spec.model_numa)
        loadgens.append(loadgen)
        lg_links.append(lg_link)

        this_rack_ports: List[NetPort] = []
        for h in range(spec.n_vmhosts):
            vmhost = VmHostMachine(env, f"rack{r}/vmhost{h}", costs,
                                   core_budget=8)
            vmhosts.append(vmhost)
            channel = _wire_channel(model, links, vmhost, iohost,
                                    f"r{r}channel{h}", f"channel{h}")
            channels.append(channel)
            for _ in range(spec.vms_per_host):
                vm = vmhost.new_vm()
                vms.append(vm)
                port = model.attach_vm(vm, channel, external_nic)
                ports.append(port)
                this_rack_ports.append(port)
                model_by_vm[vm.name] = model
        rack_ports.append(this_rack_ports)
        # The leaf statically knows the F addresses it serves locally;
        # remote leaves learn them from the first response frames.
        for port in this_rack_ports:
            fabric.learn_host(r, port.mac, ext_link)

    # Clients for rack r's VMs sit on rack (r+1) mod N's load generator,
    # in the same global order as `ports`.
    clients: List[ExternalEndpoint] = []
    for r in range(n_racks):
        q = (r + 1) % n_racks
        for _ in rack_ports[r]:
            client = loadgens[q].new_client_endpoint()
            clients.append(client)
            fabric.learn_host(q, client.mac, lg_links[q])

    testbed = Testbed(env=env, costs=costs, model_name="vrio", vms=vms,
                      ports=ports, clients=clients, stats=stats,
                      service_cores=service_cores, rng=rng, vmhosts=vmhosts,
                      iohost=None, loadgens=loadgens, models=models,
                      links=links, channels=channels,
                      _model_by_vm=model_by_vm)
    testbed.fabric = fabric
    testbed.iohosts = iohosts
    return testbed


_TOPOLOGY_BUILDERS = {
    "simple": _build_simple,
    "scalability": _build_scalability,
    "switched": _build_switched,
    "consolidation": _build_consolidation,
    "racks": _build_racks,
}

TOPOLOGIES = tuple(sorted(_TOPOLOGY_BUILDERS))
