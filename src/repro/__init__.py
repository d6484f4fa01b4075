"""vRIO — Paravirtual Remote I/O (ASPLOS 2016), reproduced in simulation.

The package is organized exactly like the system in the paper:

* :mod:`repro.sim` — the discrete-event kernel everything runs on;
* :mod:`repro.hw` — cores, NICs (with SRIOV functions), links, switches,
  storage devices;
* :mod:`repro.net` — Ethernet frames, MTU/TSO segmentation, zero-copy
  reassembly;
* :mod:`repro.virtio` — virtqueues and the paravirtual protocol;
* :mod:`repro.guest` — VMs, guest thread scheduling, the guest disk
  scheduler;
* :mod:`repro.iomodels` — the four virtual I/O models: baseline KVM/virtio,
  Elvis (local sidecores), SRIOV+ELI (the non-interposable optimum), and
  **vRIO** — the paper's contribution, including its transport driver,
  remote I/O hypervisor, block reliability protocol, control plane, and
  live-migration support;
* :mod:`repro.interpose` — programmable interposition services;
* :mod:`repro.workloads` — netperf, ApacheBench, memslap, filebench;
* :mod:`repro.cluster` — the paper's testbed topologies;
* :mod:`repro.costmodel` — the §3 rack-pricing analysis;
* :mod:`repro.experiments` — one runner per paper table/figure.

Quick start::

    from repro.cluster import TestbedSpec, build_testbed
    from repro.workloads import NetperfRR
    from repro.sim import ms

    testbed = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    rr = NetperfRR(testbed.env, testbed.clients[0], testbed.ports[0],
                   testbed.costs)
    testbed.env.run(until=ms(30))
    print(rr.mean_latency_us(), testbed.stats.snapshot())

Fault campaigns (:mod:`repro.faults`) ride the same spec: attach a
``FaultPlan`` to the spec and the planned faults fire as simulation
events — ``python -m repro faults`` runs the stock campaigns.
"""

from . import (
    analysis,
    cluster,
    costmodel,
    experiments,
    guest,
    hw,
    interpose,
    iomodels,
    net,
    sim,
    virtio,
    workloads,
)
from .cluster import (
    TestbedSpec,
    build_testbed,
)
from .iomodels import (
    BaselineModel,
    CostModel,
    DEFAULT_COSTS,
    ElvisModel,
    IoEventStats,
    OptimumModel,
    VrioModel,
)

__version__ = "1.0.0"

__all__ = [
    "sim", "hw", "net", "virtio", "guest", "iomodels", "interpose",
    "workloads", "cluster", "costmodel", "experiments", "analysis",
    "TestbedSpec", "build_testbed",
    "BaselineModel", "ElvisModel", "OptimumModel", "VrioModel",
    "CostModel", "DEFAULT_COSTS", "IoEventStats",
    "__version__",
]
