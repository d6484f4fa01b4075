"""Unit tests for the benchmark workloads."""

import random

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.hw.storage import SECTOR_BYTES
from repro.sim import ms
from repro.workloads import (
    ApacheBench,
    FilebenchRandomIO,
    Memslap,
    NetperfRR,
    NetperfStream,
    TransactionalWorkload,
    WebserverPersonality,
)
from repro.workloads import filebench


def test_netperf_rr_measures_latency():
    tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
    rr = NetperfRR(tb.env, tb.clients[0], tb.ports[0], tb.costs,
                   warmup_ns=ms(1))
    tb.env.run(until=ms(10))
    assert rr.transactions > 50
    assert 10 < rr.mean_latency_us() < 100
    assert rr.percentile_us(99) >= rr.percentile_us(50)


def test_netperf_rr_warmup_excluded():
    tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
    rr = NetperfRR(tb.env, tb.clients[0], tb.ports[0], tb.costs,
                   warmup_ns=ms(5))
    tb.env.run(until=ms(6))
    # Roughly 1ms of measurement at ~30us per transaction.
    assert rr.transactions < 60


def test_netperf_stream_throughput_positive():
    tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
    st = NetperfStream(tb.env, tb.ports[0], tb.clients[0], tb.costs,
                       warmup_ns=ms(2))
    tb.env.run(until=ms(20))
    assert 0.5 < st.throughput_gbps() < 2.0


def test_netperf_stream_window_required():
    tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
    with pytest.raises(ValueError):
        NetperfStream(tb.env, tb.ports[0], tb.clients[0], tb.costs,
                      window_chunks=0)


def test_netperf_stream_chunk_math():
    tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
    st = NetperfStream(tb.env, tb.ports[0], tb.clients[0], tb.costs,
                       message_bytes=64)
    assert st.chunk_bytes == 64 * tb.costs.netperf_stream_msgs_per_chunk
    assert st.throughput_gbps() == 0.0  # before any traffic


def test_transactional_round_trips_multiply_messages():
    tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
    w = TransactionalWorkload(tb.env, tb.clients[0], tb.ports[0], tb.costs,
                              round_trips=3, concurrency=1, warmup_ns=0)
    tb.env.run(until=ms(10))
    assert w.transactions > 0
    # 3 messages inbound per transaction.
    assert tb.ports[0].rx_messages.value == pytest.approx(
        3 * w.transactions, abs=3)


def test_transactional_validation():
    tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
    with pytest.raises(ValueError):
        TransactionalWorkload(tb.env, tb.clients[0], tb.ports[0], tb.costs,
                              round_trips=0)
    with pytest.raises(ValueError):
        TransactionalWorkload(tb.env, tb.clients[0], tb.ports[0], tb.costs,
                              concurrency=0)


def test_memslap_faster_than_apachebench():
    """Memcached ops are much lighter than HTTP requests."""
    def tps(cls):
        tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
        w = cls(tb.env, tb.clients[0], tb.ports[0], tb.costs, warmup_ns=ms(2))
        tb.env.run(until=ms(20))
        return w.throughput_tps()

    assert tps(Memslap) > 5 * tps(ApacheBench)


def test_apachebench_concurrency_increases_throughput():
    def tps(concurrency):
        tb = build_testbed(TestbedSpec(model="optimum", vms_per_host=1))
        w = ApacheBench(tb.env, tb.clients[0], tb.ports[0], tb.costs,
                        concurrency=concurrency, warmup_ns=ms(2))
        tb.env.run(until=ms(20))
        return w.throughput_tps()

    assert tps(4) > tps(1)


def test_filebench_requires_threads():
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=1,
                                   with_clients=False))
    handle = tb.attach_ramdisk(tb.vms[0])
    with pytest.raises(ValueError):
        FilebenchRandomIO(tb.env, tb.vms[0], handle,
                          tb.rng.stream("x"), tb.costs, readers=0, writers=0)


def test_filebench_reader_makes_progress():
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=1,
                                   with_clients=False))
    handle = tb.attach_ramdisk(tb.vms[0])
    w = FilebenchRandomIO(tb.env, tb.vms[0], handle, tb.rng.stream("x"),
                          tb.costs, readers=1, warmup_ns=ms(2))
    tb.env.run(until=ms(20))
    assert w.ops_per_sec() > 1000


def test_filebench_more_threads_more_throughput_on_remote_disk():
    """With vRIO's long block latency, threads pipeline: 2 threads beat 1."""
    def ops(readers):
        tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1,
                                       with_clients=False))
        handle = tb.attach_ramdisk(tb.vms[0])
        w = FilebenchRandomIO(tb.env, tb.vms[0], handle, tb.rng.stream("x"),
                              tb.costs, readers=readers, warmup_ns=ms(2))
        tb.env.run(until=ms(25))
        return w.ops_per_sec()

    assert ops(2) > 1.4 * ops(1)


def test_webserver_personality_reads_files():
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=1,
                                   with_clients=False))
    handle = tb.attach_ramdisk(tb.vms[0])
    w = WebserverPersonality(tb.env, tb.vms[0], handle, tb.rng.stream("w"),
                             tb.costs, warmup_ns=ms(2))
    tb.env.run(until=ms(40))
    assert w.operations > 10
    assert w.throughput_mbps() > 0
    assert w.bytes_read > 0


def test_webserver_fileset_statistics():
    """Mean file size must be near the paper's 28 KB."""
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=1,
                                   with_clients=False))
    handle = tb.attach_ramdisk(tb.vms[0])
    w = WebserverPersonality(tb.env, tb.vms[0], handle, tb.rng.stream("w"),
                             tb.costs)
    assert len(w._file_sectors) == WebserverPersonality.FILE_COUNT
    assert len(w._file_sizes) == WebserverPersonality.FILE_COUNT
    mean = sum(w._file_sizes) / len(w._file_sizes)
    assert 20 * 1024 < mean < 40 * 1024


def _reference_fileset(rng, disk_bytes, count):
    """The original per-file lognormvariate layout loop, kept verbatim."""
    files = []
    sector = 0
    total_sectors = disk_bytes // SECTOR_BYTES
    mu, sigma = 9.8, 1.0  # lognormal with mean ~ 28 KB
    for _ in range(count):
        size = int(rng.lognormvariate(mu, sigma))
        size = max(1024, min(size, 256 * 1024))
        sectors = -(-size // SECTOR_BYTES)
        if sector + sectors >= total_sectors:
            sector = 0
        files.append((sector, sectors * SECTOR_BYTES))
        sector += sectors
    return files


@pytest.fixture
def empty_fileset_memo(monkeypatch):
    """Run the test against an empty, private fileset memo."""
    monkeypatch.setattr(filebench, "_filesets", {})


def _assert_matches_reference(w, seed):
    rng = random.Random(seed)
    files = _reference_fileset(rng, 1 << 30, WebserverPersonality.FILE_COUNT)
    assert list(zip(w._file_sectors, w._file_sizes)) == files
    assert w.rng.getstate() == rng.getstate()
    assert w._log_sector == files[-1][0]


def test_webserver_fileset_matches_reference_on_miss_hit_and_rebuild(
        empty_fileset_memo, monkeypatch):
    """Memoized or not, the layout and the stream it leaves behind are
    draw-for-draw those of the original lognormvariate loop."""
    monkeypatch.setattr(filebench, "_FILESET_MEMO_ENTRIES", 1)
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=1,
                                   with_clients=False))
    handle = tb.attach_ramdisk(tb.vms[0])

    def webserver(seed):
        return WebserverPersonality(tb.env, tb.vms[0], handle,
                                    random.Random(seed), tb.costs)

    miss = webserver("0/webserver-0")
    _assert_matches_reference(miss, "0/webserver-0")
    hit = webserver("0/webserver-0")
    assert hit._file_sectors is miss._file_sectors
    _assert_matches_reference(hit, "0/webserver-0")
    webserver("0/webserver-1")  # evicts webserver-0's layout
    rebuilt = webserver("0/webserver-0")
    assert rebuilt._file_sectors is not miss._file_sectors
    _assert_matches_reference(rebuilt, "0/webserver-0")


def test_fileset_memo_shares_read_only_buffers_within_its_bound(
        empty_fileset_memo):
    first = filebench._fileset(random.Random(0), 1 << 20, 64)
    again = filebench._fileset(random.Random(0), 1 << 20, 64)
    assert again[0] is first[0] and again[1] is first[1]
    for view in first:
        assert view.readonly
        with pytest.raises(TypeError):
            view[0] = 1
    # The parameters are part of the key.
    assert len(filebench._fileset(random.Random(0), 1 << 20, 32)[0]) == 32
    bound = filebench._FILESET_MEMO_ENTRIES
    assert bound >= 10  # one consolidation testbed's VMs
    for seed in range(1, 2 * bound):
        filebench._fileset(random.Random(seed), 1 << 20, 64)
        assert len(filebench._filesets) <= bound
    # Oldest first: seed 0's layout was evicted long ago.
    assert filebench._fileset(random.Random(0), 1 << 20, 64)[0] \
        is not first[0]


def test_webserver_appends_to_log():
    tb = build_testbed(TestbedSpec(model="elvis", vms_per_host=1,
                                   with_clients=False))
    handle = tb.attach_ramdisk(tb.vms[0])
    w = WebserverPersonality(tb.env, tb.vms[0], handle, tb.rng.stream("w"),
                             tb.costs, warmup_ns=0)
    tb.env.run(until=ms(60))
    # One log write per LOG_EVERY reads per thread.
    device_writes = handle.device.writes.value
    assert device_writes >= w.operations // WebserverPersonality.LOG_EVERY - 4
    assert device_writes > 0
