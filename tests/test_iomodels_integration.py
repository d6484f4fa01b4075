"""End-to-end integration tests across the four I/O models."""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.hw import BlockRequest
from repro.sim import ms

ALL_MODELS = ("baseline", "elvis", "optimum", "vrio", "vrio_nopoll")
BLOCK_MODELS = ("baseline", "elvis", "vrio", "vrio_nopoll")


def run_request_response(model_name, n_vms=1, requests=5):
    tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=n_vms))
    env = tb.env
    port, client = tb.ports[0], tb.clients[0]
    received = []

    def serve(message):
        port.send(message.src, 128, kind="resp", meta=dict(message.meta))

    port.receive_handler = serve
    client.receive_handler = lambda m: received.append(m)

    def driver(env):
        for i in range(requests):
            before = len(received)
            client.send(port.mac, 64, kind="req", meta={"seq": i})
            while len(received) == before:
                yield env.timeout(1000)

    env.process(driver(env))
    env.run(until=ms(20))
    return tb, received


@pytest.mark.parametrize("model_name", ALL_MODELS)
def test_request_response_round_trips(model_name):
    _tb, received = run_request_response(model_name)
    assert len(received) == 5
    assert [m.meta["seq"] for m in received] == list(range(5))


@pytest.mark.parametrize("model_name", ALL_MODELS)
def test_message_sizes_preserved(model_name):
    _tb, received = run_request_response(model_name)
    assert all(m.size_bytes == 128 for m in received)


@pytest.mark.parametrize("model_name", ALL_MODELS)
def test_multiple_vms_isolated(model_name):
    """Traffic addressed to VM i arrives only at VM i."""
    tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=3))
    env = tb.env
    got = {i: [] for i in range(3)}
    for i, port in enumerate(tb.ports):
        port.receive_handler = lambda m, idx=i: got[idx].append(m)
    for i in range(3):
        tb.clients[0].send(tb.ports[i].mac, 64, meta={"target": i})
    env.run(until=ms(5))
    for i in range(3):
        assert len(got[i]) == 1
        assert got[i][0].meta["target"] == i


@pytest.mark.parametrize("model_name", BLOCK_MODELS)
def test_block_read_write_completes(model_name):
    tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=1,
                                   with_clients=False))
    handle = tb.attach_ramdisk(tb.vms[0])
    done = []

    def proc(env):
        yield handle.submit(BlockRequest(op="write", sector=0,
                                         size_bytes=4096))
        done.append("write")
        yield handle.submit(BlockRequest(op="read", sector=0,
                                         size_bytes=4096))
        done.append("read")

    tb.env.process(proc(tb.env))
    tb.env.run(until=ms(10))
    assert done == ["write", "read"]


@pytest.mark.parametrize("model_name", BLOCK_MODELS)
def test_block_latency_ordering(model_name):
    """Remote (vRIO) block I/O must be slower than local sidecore block I/O
    but all models must complete within a sane bound."""
    tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=1,
                                   with_clients=False))
    handle = tb.attach_ramdisk(tb.vms[0])

    def proc(env):
        start = env.now
        yield handle.submit(BlockRequest(op="read", sector=8,
                                         size_bytes=4096))
        return env.now - start

    p = tb.env.process(proc(tb.env))
    tb.env.run(until=ms(10))
    latency_us = p.value / 1000
    if model_name.startswith("vrio"):
        assert 20 < latency_us < 200
    else:
        assert 2 < latency_us < 60


def test_vrio_remote_block_slower_than_elvis_local():
    def one(model_name):
        tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=1,
                                       with_clients=False))
        handle = tb.attach_ramdisk(tb.vms[0])

        def proc(env):
            start = env.now
            yield handle.submit(BlockRequest(op="read", sector=0,
                                             size_bytes=4096))
            return env.now - start

        p = tb.env.process(proc(tb.env))
        tb.env.run(until=ms(10))
        return p.value

    assert one("vrio") > one("elvis")


def test_elvis_uses_sidecore_not_vcpu_for_backend():
    tb, _ = run_request_response("elvis")
    sidecore = tb.service_cores[0]
    assert sidecore.cycles_by_tag.get("backend", 0) > 0
    assert sidecore.cycles_by_tag.get("host_irq", 0) > 0


def test_vrio_uses_iohost_workers():
    tb, _ = run_request_response("vrio")
    worker = tb.service_cores[0]
    assert worker.cycles_by_tag.get("worker_rx", 0) > 0
    assert worker.cycles_by_tag.get("worker_tx", 0) > 0


def test_vrio_vm_vcpu_never_runs_backend_work():
    """The VMhost is unaware of the I/O: no backend tags on the VCPU."""
    tb, _ = run_request_response("vrio")
    vcpu_tags = set(tb.vms[0].vcpu.cycles_by_tag)
    assert not vcpu_tags & {"worker_rx", "worker_tx", "backend", "vhost"}


def test_baseline_pays_exits_vrio_does_not():
    tb_base, _ = run_request_response("baseline")
    tb_vrio, _ = run_request_response("vrio")
    assert tb_base.stats.exits.value > 0
    assert tb_vrio.stats.exits.value == 0


def test_vrio_poll_no_iohost_interrupts():
    tb, _ = run_request_response("vrio")
    assert tb.stats.iohost_interrupts.value == 0


def test_vrio_nopoll_pays_iohost_interrupts():
    tb, _ = run_request_response("vrio_nopoll")
    assert tb.stats.iohost_interrupts.value > 0


def test_interposition_cost_slows_vrio_traffic():
    from repro.interpose import AesEncryption

    def latency(with_aes):
        tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
        if with_aes:
            tb.model.add_interposer(AesEncryption())
        port, client = tb.ports[0], tb.clients[0]
        port.receive_handler = lambda m: port.send(m.src, 64)
        times = []
        client.receive_handler = lambda m: times.append(tb.env.now)
        client.send(port.mac, 8192)
        tb.env.run(until=ms(5))
        return times[0]

    assert latency(with_aes=True) > latency(with_aes=False)


def test_firewall_interposer_blocks_traffic():
    from repro.interpose import Firewall
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    tb.model.add_interposer(Firewall(rules=[lambda m: m.size_bytes < 1000]))
    port, client = tb.ports[0], tb.clients[0]
    got = []
    port.receive_handler = got.append
    client.send(port.mac, 64)      # allowed
    client.send(port.mac, 4096)    # vetoed
    tb.env.run(until=ms(5))
    assert len(got) == 1


def test_deterministic_across_runs():
    a = run_request_response("vrio", requests=10)[0].stats.snapshot()
    b = run_request_response("vrio", requests=10)[0].stats.snapshot()
    assert a == b
