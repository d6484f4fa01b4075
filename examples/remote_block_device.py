#!/usr/bin/env python3
"""Remote block devices over an unreliable channel (§4.5, Fig. 14).

Gives a VM a ramdisk that lives at the IOhost, runs 4 KB O_DIRECT random
I/O against it through the guest disk scheduler, and demonstrates:

1. the latency cost of making a local device remote (vs Elvis's local
   sidecore) — the paper's "up to 2.2x";
2. that with enough thread concurrency the remote device catches up and
   overtakes (involuntary-context-switch effect, Fig. 14);
3. exactly-once completion over a 15%-lossy Ethernet channel via the
   retransmission protocol (unique ids, 10 ms doubling timeouts, stale
   response filtering).

Run:  python examples/remote_block_device.py
"""

from repro.cluster import TestbedSpec, build_testbed
from repro.sim import ms, seconds
from repro.workloads import FilebenchRandomIO


def filebench(model_name: str, readers: int, writers: int,
              channel_loss: float = 0.0):
    testbed = build_testbed(TestbedSpec(model=model_name, vms_per_host=1,
                                        with_clients=False,
                                        channel_loss=channel_loss, seed=42))
    vm = testbed.vms[0]
    handle = testbed.attach_ramdisk(vm)
    workload = FilebenchRandomIO(
        testbed.env, vm, handle, testbed.rng.stream("fb"), testbed.costs,
        readers=readers, writers=writers, warmup_ns=ms(2))
    testbed.env.run(until=ms(40) if channel_loss == 0 else seconds(1.0))
    return testbed, workload


def main() -> None:
    print("1) Latency cost of the remote device (single reader):")
    _, elvis = filebench("elvis", readers=1, writers=0)
    _, vrio = filebench("vrio", readers=1, writers=0)
    ratio = elvis.ops_per_sec() / vrio.ops_per_sec()
    print(f"   elvis local ramdisk : {elvis.ops_per_sec():9.0f} ops/s")
    print(f"   vrio remote ramdisk : {vrio.ops_per_sec():9.0f} ops/s")
    print(f"   -> remote latency is ~{ratio:.1f}x the local one "
          f"(paper: up to 2.2x)\n")

    print("2) Concurrency hides the remote latency (2 readers + 2 writers):")
    _, elvis4 = filebench("elvis", readers=2, writers=2)
    _, vrio4 = filebench("vrio", readers=2, writers=2)
    print(f"   elvis: {elvis4.ops_per_sec():9.0f} ops/s "
          f"({elvis4.scheduler.involuntary_switches.value} involuntary "
          f"context switches)")
    print(f"   vrio : {vrio4.ops_per_sec():9.0f} ops/s "
          f"({vrio4.scheduler.involuntary_switches.value} involuntary "
          f"context switches)\n")

    print("3) Recovery over a 15%-lossy channel:")
    testbed, lossy = filebench("vrio", readers=2, writers=2,
                               channel_loss=0.15)
    reliable = testbed.model.client_of(testbed.vms[0]).reliable
    print(f"   completed ops      : {reliable.completions.value}")
    print(f"   retransmissions    : {reliable.retransmissions.value}")
    print(f"   stale responses    : {reliable.stale_responses.value} "
          f"(ignored, exactly-once preserved)")
    print(f"   device errors      : {reliable.failures.value}")


if __name__ == "__main__":
    main()
