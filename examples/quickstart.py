#!/usr/bin/env python3
"""Quickstart: compare the four virtual I/O models on netperf RR.

Builds the paper's Figure 6 testbed for each model — one VMhost, one load
generator, and (for vRIO) an IOhost in between — runs a closed-loop
request-response workload, and prints mean latency next to the Table 3
virtualization-event counts that explain it.

Run:  python examples/quickstart.py
"""

from repro.cluster import TestbedSpec, build_testbed
from repro.sim import ms
from repro.workloads import NetperfRR


def measure(model_name: str, n_vms: int = 1) -> dict:
    testbed = build_testbed(TestbedSpec(model=model_name, vms_per_host=n_vms))
    workloads = [
        NetperfRR(testbed.env, testbed.clients[i], testbed.ports[i],
                  testbed.costs, warmup_ns=ms(2))
        for i in range(n_vms)
    ]
    testbed.env.run(until=ms(30))
    transactions = sum(w.transactions for w in workloads)
    return {
        "latency_us": sum(w.mean_latency_us() for w in workloads) / n_vms,
        "events_per_rr": testbed.stats.total() / max(1, transactions),
        "transactions": transactions,
    }


def main() -> None:
    print("netperf UDP_RR, one VM, one (side)core "
          "(events = exits + interrupts + injections per transaction)\n")
    print(f"{'model':13s} {'latency':>10s} {'events/rr':>10s} {'txns':>7s}")
    for model_name in ("optimum", "vrio", "elvis", "vrio_nopoll",
                       "baseline"):
        r = measure(model_name)
        print(f"{model_name:13s} {r['latency_us']:8.1f}us "
              f"{r['events_per_rr']:10.1f} {r['transactions']:7d}")

    print("\nThe ordering mirrors the paper's Table 3: vRIO matches the")
    print("non-interposable optimum's event count (2) while remaining fully")
    print("interposable; its extra ~12us is the price of the remote hop.")


if __name__ == "__main__":
    main()
