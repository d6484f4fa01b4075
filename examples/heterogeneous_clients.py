#!/usr/bin/env python3
"""Hypervisor independence, bare-metal clients, and live migration (§4.6).

One I/O hypervisor serves three very different IOclients at once:

* a KVM-style guest VM,
* a second VM that undergoes live migration to another VMhost mid-run
  (Tsriov -> Tvirtio -> stop-and-copy -> Tsriov),
* a bare-metal POWER machine that simply installed the vRIO driver.

A metering interposer at the IOhost accounts traffic for all three —
services that none of the clients (or their absent hypervisors) can
disable.

Run:  python examples/heterogeneous_clients.py
"""

from repro.cluster import TestbedSpec, build_testbed
from repro.hw import Core
from repro.interpose import Meter
from repro.iomodels.vrio import live_migrate
from repro.sim import ms


def main() -> None:
    # Two VMhosts behind one IOhost, one VM each; each VMhost paired with
    # its own load generator.
    testbed = build_testbed(TestbedSpec(model="vrio", topology="scalability",
                                        n_vmhosts=2, sidecores=2))
    model = testbed.model
    meter = Meter()
    model.add_interposer(meter)

    # Add a bare-metal client (a POWER 710 in the paper's demo) on
    # VMhost 0's channel.
    channel = model.client_of(testbed.vms[0]).channel
    power_core = Core(testbed.env, "power710/core0", ghz=3.0)
    bare_port = model.attach_bare_metal("power710", power_core, channel,
                                        testbed.iohost.nics[1])

    ports = list(testbed.ports) + [bare_port]
    names = [vm.name for vm in testbed.vms] + ["power710 (bare metal)"]
    clients = [testbed.clients[0], testbed.clients[1], testbed.clients[0]]
    echoes = {id(p): 0 for p in ports}
    for port in ports:
        def serve(message, port=port):
            echoes[id(port)] += 1
            port.send(message.src, 256)
        port.receive_handler = serve
    for client in set(clients):
        client.receive_handler = lambda m: None

    def traffic(env):
        migrating = model.client_of(testbed.vms[1])
        target = model.client_of(testbed.vms[0]).channel
        for round_nr in range(60):
            for port, client in zip(ports, clients):
                client.send(port.mac, 512)
            if round_nr == 20:
                print("  [t=%.1f ms] live-migrating %s to %s ..."
                      % (env.now / 1e6, testbed.vms[1].name, target.name))
                live_migrate(model, migrating, target, downtime_ns=ms(3))
            yield env.timeout(ms(0.5))

    testbed.env.process(traffic(testbed.env))
    testbed.env.run(until=ms(50))

    print("\nPer-client transactions served through ONE I/O hypervisor:")
    for port, name in zip(ports, names):
        print(f"  {name:28s} {echoes[id(port)]:4d} request-responses")

    print("\nMetering interposer accounting (cannot be disabled by any "
          "client):")
    total = sum(meter.bytes_by_src.values())
    print(f"  {len(meter.bytes_by_src)} traffic sources, "
          f"{total / 1024:.0f} KiB metered")

    migrated = model.client_of(testbed.vms[1])
    print(f"\nAfter migration: {testbed.vms[1].name} runs on channel "
          f"{migrated.channel.name!r} with transport mode "
          f"{migrated.transport_mode!r} — its externally visible F address "
          "never changed.")


if __name__ == "__main__":
    main()
