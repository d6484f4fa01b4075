"""Integration tests for §4.5: block recovery over a lossy channel, and
the Rx-ring sizing fix."""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.guest import GuestBlockScheduler
from repro.hw import BlockRequest
from repro.iomodels.vrio import BlockDeviceError
from repro.sim import ms, seconds


def run_block_workload(channel_loss=0.0, requests=30, channel_rx_ring=4096,
                       seed=7, run_s=1.2):
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1,
                                   with_clients=False,
                                   channel_loss=channel_loss,
                                   channel_rx_ring=channel_rx_ring, seed=seed))
    handle = tb.attach_ramdisk(tb.vms[0])
    sched = GuestBlockScheduler(tb.env, handle.submit)
    completed = []
    failed = []

    def proc(env):
        for i in range(requests):
            op = "write" if i % 2 else "read"
            try:
                yield sched.submit(BlockRequest(op=op, sector=i * 8,
                                                size_bytes=4096))
                completed.append(i)
            except BlockDeviceError:
                failed.append(i)

    tb.env.process(proc(tb.env))
    tb.env.run(until=seconds(run_s))
    client = tb.model.client_of(tb.vms[0])
    return tb, completed, failed, client


def test_reliable_channel_no_retransmissions():
    _tb, completed, failed, client = run_block_workload(channel_loss=0.0)
    assert len(completed) == 30
    assert not failed
    assert client.reliable.retransmissions.value == 0


def test_lossy_channel_recovers_all_requests():
    """With 20% frame loss, every request still completes via §4.5
    retransmission (this mirrors the paper's artificial-drop validation)."""
    _tb, completed, failed, client = run_block_workload(channel_loss=0.2)
    assert len(completed) == 30
    assert not failed
    assert client.reliable.retransmissions.value > 0


def test_heavy_loss_still_makes_progress():
    """At 40% loss, concurrently issued requests all complete eventually
    (disjoint sectors, so the guest scheduler lets them fly in parallel)."""
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1,
                                   with_clients=False, channel_loss=0.4,
                                   seed=11))
    handle = tb.attach_ramdisk(tb.vms[0])
    completed, failed = [], []

    def proc(env, i):
        try:
            yield handle.submit(BlockRequest(op="read", sector=i * 64,
                                             size_bytes=4096))
            completed.append(i)
        except BlockDeviceError:
            failed.append(i)

    for i in range(10):
        tb.env.process(proc(tb.env, i))
    tb.env.run(until=seconds(6.0))
    assert len(completed) + len(failed) == 10
    assert len(completed) >= 8  # doubling timeouts push most through


def test_loss_increases_completion_time():
    def total_time(loss):
        tb, completed, _failed, _client = run_block_workload(
            channel_loss=loss, requests=20, run_s=2.0)
        assert len(completed) == 20
        return tb.env.now  # run() stops early when the heap drains

    # Identical workloads; the lossy one needs retransmission delays.
    tb_clean = run_block_workload(channel_loss=0.0, requests=20)[0]
    tb_lossy = run_block_workload(channel_loss=0.25, requests=20,
                                  run_s=2.0)[0]
    clean_retrans = tb_clean.model.client_of(tb_clean.vms[0]).reliable
    lossy_retrans = tb_lossy.model.client_of(tb_lossy.vms[0]).reliable
    assert lossy_retrans.retransmissions.value > clean_retrans.retransmissions.value


def test_duplicate_service_is_harmless():
    """A retransmission can cause the IOhost to serve a request twice; the
    stale second response must be dropped and the data remain consistent
    (guaranteed by the one-outstanding-per-block guest scheduler)."""
    _tb, completed, failed, client = run_block_workload(channel_loss=0.3,
                                                        requests=20,
                                                        seed=3, run_s=2.0)
    assert len(completed) == 20
    assert not failed
    # Any stale responses were counted, not delivered twice.
    assert client.reliable.completions.value == 20


def test_tiny_rx_ring_causes_drops_under_burst():
    """The paper's production incident: an undersized channel Rx ring
    drops under bursts (§4.5 grew it 512 -> 4096).  We provoke the regime
    with a slow I/O hypervisor (window=1, so frames back up behind a busy
    worker) and a burst of concurrent large writes."""
    def drops_with_ring(ring):
        tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1,
                                       with_clients=False,
                                       channel_rx_ring=ring, pump_window=1))
        handle = tb.attach_ramdisk(tb.vms[0])

        def proc(env, k):
            yield handle.submit(BlockRequest(op="write", sector=k * 512,
                                             size_bytes=256 * 1024))

        for k in range(40):
            tb.env.process(proc(tb.env, k))
        tb.env.run(until=seconds(1.5))
        client = tb.model.client_of(tb.vms[0])
        channel_fn = client.channel.iohost_fn
        return channel_fn.rx_dropped.value, client.reliable

    drops_small, reliable_small = drops_with_ring(8)
    drops_big, reliable_big = drops_with_ring(4096)
    assert drops_small > 0
    assert drops_big == 0          # the paper's fix: a big ring never drops
    # The reliability layer recovered the small-ring losses (a congested
    # IOhost may still trigger timeout-driven retransmissions without any
    # drops - those are spurious but harmless).
    assert reliable_small.retransmissions.value > 0
    assert reliable_small.completions.value == 40
    assert reliable_big.completions.value == 40
