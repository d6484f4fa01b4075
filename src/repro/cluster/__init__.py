"""Rack-level assembly: machines, topologies, the testbed builder."""

from .host import IoHostMachine, LoadGenHost, VmHostMachine, guest_costs_from
from .testbed import (
    MODEL_NAMES,
    TOPOLOGIES,
    Testbed,
    TestbedSpec,
    build_testbed,
)

__all__ = [
    "VmHostMachine", "IoHostMachine", "LoadGenHost", "guest_costs_from",
    "Testbed", "TestbedSpec", "build_testbed",
    "MODEL_NAMES", "TOPOLOGIES",
]
