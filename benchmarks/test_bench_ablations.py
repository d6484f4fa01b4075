"""Ablation benches for the design choices DESIGN.md §6 calls out:

* IOhost polling vs interrupt-driven NICs;
* channel MTU: standard 1500 vs the paper's 8100 vs max jumbo 9000 (which
  breaks the 17-fragment zero-copy bound);
* per-device affinity steering vs random spraying;
* channel Rx ring 512 vs 4096 under a congested I/O hypervisor.
"""

from conftest import run_once

from repro.cluster import TestbedSpec, build_testbed
from repro.hw import BlockRequest
from repro.sim import ms, seconds
from repro.workloads import NetperfRR, NetperfStream


def _rr_latency(model_name):
    tb = build_testbed(TestbedSpec(model=model_name, vms_per_host=1))
    rr = NetperfRR(tb.env, tb.clients[0], tb.ports[0], tb.costs,
                   warmup_ns=ms(2))
    tb.env.run(until=ms(25))
    return rr.mean_latency_us(), tb


def test_bench_ablation_polling(benchmark, show):
    """Turning IOhost polling off costs latency and pays interrupts."""
    def run():
        poll, tb_poll = _rr_latency("vrio")
        nopoll, tb_nopoll = _rr_latency("vrio_nopoll")
        return poll, nopoll, tb_nopoll.stats.iohost_interrupts.value

    poll, nopoll, irqs = run_once(benchmark, run)
    show(f"Ablation: IOhost polling\n"
         f"  vrio (poll)     {poll:6.1f} us, 0 IOhost interrupts\n"
         f"  vrio w/o poll   {nopoll:6.1f} us, {irqs} IOhost interrupts")
    assert nopoll > poll
    assert irqs > 0


def test_bench_ablation_channel_mtu(benchmark, show):
    """MTU 8100 keeps reassembly zero-copy; 9000 forces copies; 1500
    multiplies fragments (and thus per-fragment reassembly work)."""
    def run():
        out = {}
        for mtu in (1500, 8100, 9000):
            tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=2,
                                           channel_mtu=mtu))
            streams = [NetperfStream(tb.env, tb.ports[i], tb.clients[i],
                                     tb.costs, warmup_ns=ms(2))
                       for i in range(2)]
            tb.env.run(until=ms(25))
            worker = tb.service_cores[0]
            chunks = sum(s.chunks_received for s in streams)
            out[mtu] = {
                "gbps": sum(s.throughput_gbps() for s in streams),
                "zero_copy": tb.model.zero_copy_chunks.value,
                "copied": tb.model.copied_chunks.value,
                "worker_cycles_per_chunk":
                    worker.total_cycles / max(1, chunks),
            }
        return out

    out = run_once(benchmark, run)
    lines = ["Ablation: channel MTU"]
    for mtu, r in out.items():
        lines.append(f"  MTU {mtu:5d}: {r['gbps']:5.2f} Gbps, "
                     f"zero-copy {r['zero_copy']}, copied {r['copied']}, "
                     f"{r['worker_cycles_per_chunk']:7.0f} worker cyc/chunk")
    show("\n".join(lines))
    assert out[8100]["copied"] == 0            # the paper's choice is safe
    assert out[9000]["copied"] > 0             # max jumbo breaks zero copy
    assert out[1500]["copied"] > 0             # standard MTU: >17 fragments
    # The paper's MTU minimizes IOhost work per chunk.
    assert (out[8100]["worker_cycles_per_chunk"]
            < out[1500]["worker_cycles_per_chunk"])
    assert (out[8100]["worker_cycles_per_chunk"]
            < out[9000]["worker_cycles_per_chunk"])


def test_bench_ablation_steering_policy(benchmark, show):
    """Random spraying loses the per-device ordering guarantee that
    affinity steering provides (§4.1)."""
    from repro.iomodels.vrio import WorkerPool
    from repro.hw import Core
    from repro.sim import Environment
    import random

    def run():
        results = {}
        for policy in ("affinity", "random"):
            env = Environment()
            workers = [Core(env, f"w{i}", 2.7) for i in range(4)]
            pool = WorkerPool(env, workers, policy=policy,
                              rng=random.Random(1))
            completions = []

            def submit(seq, cycles):
                worker = pool.acquire("dev")

                def path(env):
                    yield worker.execute(cycles)
                    completions.append(seq)
                    pool.release("dev")

                env.process(path(env))

            # Alternating long/short work of ONE device.
            for seq in range(40):
                submit(seq, 5000 if seq % 2 == 0 else 500)
            env.run()
            inversions = sum(1 for a, b in zip(completions, completions[1:])
                             if a > b)
            results[policy] = inversions
        return results

    results = run_once(benchmark, run)
    show("Ablation: steering policy (per-device order inversions)\n"
         f"  affinity: {results['affinity']}\n"
         f"  random:   {results['random']}")
    assert results["affinity"] == 0
    assert results["random"] > 0


def test_bench_ablation_rx_ring(benchmark, show):
    """§4.5: the 512 -> 4096 channel Rx ring fix.  The congestion regime:
    a serialized I/O hypervisor (pump window 1) running heavyweight AES
    interposition, hit with a burst of 1 MB writes — chunks arrive at wire
    rate far faster than the worker can drain them."""
    from repro.interpose import AesEncryption

    def run():
        out = {}
        n_writes = 2000
        for ring in (512, 4096):
            from repro.iomodels.costs import DEFAULT_COSTS
            # Isolate drops from timeouts; the cap must admit the
            # initial value.
            costs = DEFAULT_COSTS.copy(blk_initial_timeout_ns=seconds(2),
                                       blk_max_timeout_ns=seconds(2))
            tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1,
                                           with_clients=False,
                                           channel_rx_ring=ring, pump_window=1,
                                           costs=costs))
            tb.model.add_interposer(AesEncryption())
            handle = tb.attach_ramdisk(tb.vms[0])

            def proc(env, k):
                yield handle.submit(BlockRequest(op="write", sector=k * 8,
                                                 size_bytes=4096))

            for k in range(n_writes):
                tb.env.process(proc(tb.env, k))
            tb.env.run(until=seconds(30))
            client = tb.model.client_of(tb.vms[0])
            out[ring] = {
                "drops": client.channel.iohost_fn.rx_dropped.value,
                "retrans": client.reliable.retransmissions.value,
                "completions": client.reliable.completions.value,
            }
        return out

    out = run_once(benchmark, run)
    lines = ["Ablation: channel Rx ring size"]
    for ring, r in out.items():
        lines.append(f"  ring {ring:4d}: drops {r['drops']}, "
                     f"retransmissions {r['retrans']}, "
                     f"completions {r['completions']}")
    show("\n".join(lines))
    assert out[512]["drops"] > 0
    assert out[4096]["drops"] == 0
    assert out[4096]["completions"] == 2000
    # The reliability layer recovered every loss the small ring caused.
    assert out[512]["completions"] == 2000
    assert out[512]["retrans"] > 0
