#!/usr/bin/env python3
"""Rack-scale sidecore consolidation: performance AND price (§3, Fig. 16).

Part 1 replays the consolidation performance story: two VMhosts running
filebench's Webserver personality, comparing Elvis (one sidecore per host)
against vRIO (the two sidecores consolidated at an IOhost), with and
without load imbalance + AES-256 interposition.

Part 2 prices the same idea with the paper's Dell R930 configurator data:
the Table 2 rack transforms and the Figure 3 SSD-consolidation sweep.

Run:  python examples/rack_consolidation.py
"""

from repro.cluster import TestbedSpec, build_testbed
from repro.costmodel import rack_price_comparison, ssd_consolidation_ratio
from repro.interpose import AesEncryption
from repro.sim import ms
from repro.workloads import WebserverPersonality


def webserver_run(model_name, active_vms, aes=False, sidecores=1):
    testbed = build_testbed(TestbedSpec(model=model_name,
                                        topology="consolidation", n_vmhosts=2,
                                        vms_per_host=5, sidecores=sidecores))
    if aes:
        for model in testbed.models:
            model.add_interposer(AesEncryption())
    workloads = []
    for i in active_vms:
        vm = testbed.vms[i]
        handle = testbed.attach_ramdisk(vm)
        workloads.append(WebserverPersonality(
            testbed.env, vm, handle, testbed.rng.stream(f"ws{i}"),
            testbed.costs, warmup_ns=ms(2),
            app_dilation=testbed.ports[i].app_dilation))
    testbed.env.run(until=ms(50))
    mbps = sum(w.throughput_mbps() for w in workloads)
    useful = [core.util.useful_fraction() * 100
              for core in testbed.service_cores]
    return mbps, useful


def main() -> None:
    print("=== Consolidation tradeoff: 2 local sidecores => 1 remote ===")
    all_vms = range(10)
    elvis_mbps, elvis_util = webserver_run("elvis", all_vms, sidecores=1)
    vrio_mbps, vrio_util = webserver_run("vrio", all_vms, sidecores=1)
    base_mbps, _ = webserver_run("baseline", all_vms)
    print(f"  elvis (2 sidecores): {elvis_mbps:8.0f} Mbps, useful "
          f"utilization {elvis_util[0]:.0f}% + {elvis_util[1]:.0f}%")
    print(f"  vrio  (1 sidecore) : {vrio_mbps:8.0f} Mbps "
          f"({vrio_mbps / elvis_mbps - 1:+.1%}), useful utilization "
          f"{vrio_util[0]:.0f}%")
    print(f"  baseline           : {base_mbps:8.0f} Mbps "
          f"({base_mbps / elvis_mbps - 1:+.1%})")
    print("  -> vRIO trades a few percent of throughput for HALF the "
          "sidecores.\n")

    print("=== Load imbalance: same 2-sidecore budget, one hot VMhost, "
          "AES-256 interposition ===")
    hot_vms = range(5)  # only VMhost 0 is active
    elvis_hot, _ = webserver_run("elvis", hot_vms, sidecores=1, aes=True)
    vrio_hot, _ = webserver_run("vrio", hot_vms, sidecores=2, aes=True)
    print(f"  elvis (1 usable local sidecore) : {elvis_hot:7.0f} Mbps")
    print(f"  vrio  (2 consolidated sidecores): {vrio_hot:7.0f} Mbps "
          f"({vrio_hot / elvis_hot - 1:+.1%})")
    print("  -> consolidated sidecores follow the load; local ones "
          "strand.\n")

    print("=== The price of the same transform (Dell R930 list prices) ===")
    for row in rack_price_comparison():
        print(f"  {row['setup']}: elvis ${row['elvis_price_usd']:,.0f} vs "
              f"vrio ${row['vrio_price_usd']:,.0f} "
              f"({row['diff_percent']:+.1f}%), VMcores "
              f"{row['elvis_vm_cores']} = {row['vrio_vm_cores']}")
    print("\n  SSD consolidation (6-server rack, 6.4TB FusionIO):")
    for v in (6, 3, 1):
        ratio = ssd_consolidation_ratio(6, 6, v, ssd="6.4TB")
        print(f"    6 => {v} drives: vRIO at {ratio:.0%} of the Elvis price")


if __name__ == "__main__":
    main()
