"""Property-based fuzzing of the protocol-level building blocks.

Each property draws one integer seed per hypothesis example and builds
its random inputs from ``random.Random(seed)``; a failure reports the
falsifying seed, and the example replays from it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.frame import JUMBO_MTU_VRIO, STANDARD_MTU
from repro.net.segmentation import (
    ReassemblyBuffer,
    Segment,
    TSO_MAX_BYTES,
    pages_for_fragment,
    reassembly_is_zero_copy,
    segment_sizes,
)
from repro.hw.cpu import Core
from repro.iomodels.base import message_wire_bytes
from repro.sim import Environment
from repro.testing import check_core
from repro.virtio.ring import Virtqueue, VirtioRequest

SEEDS = st.integers(min_value=0, max_value=(1 << 32) - 1)


# -- segmentation / TSO -------------------------------------------------------

@given(SEEDS)
@settings(max_examples=400, deadline=None)
def test_segmentation_conserves_bytes(seed):
    rng = random.Random(seed)
    size = rng.randrange(1, 2 * TSO_MAX_BYTES)
    mtu = rng.choice([1500, STANDARD_MTU, 4096, JUMBO_MTU_VRIO, 9000])
    sizes = segment_sizes(size, mtu)
    assert sum(sizes) == size
    assert all(0 < s <= mtu for s in sizes)
    assert len(sizes) == -(-size // mtu)  # ceil
    # All-but-last fragments are full MTU (largest-first layout).
    assert all(s == mtu for s in sizes[:-1])


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_wire_bytes_dominate_payload(seed):
    rng = random.Random(seed)
    size = rng.randrange(1, TSO_MAX_BYTES + 1)
    mtu = rng.choice([1500, STANDARD_MTU, JUMBO_MTU_VRIO])
    assert message_wire_bytes(size, mtu) >= size


@given(SEEDS)
@settings(max_examples=300, deadline=None)
def test_paper_zero_copy_boundary(seed):
    """MTU 8100 keeps every <=64 KB message zero-copy; MTU 9000 breaks
    exactly at the large end (the §4.4 claim the harness must preserve)."""
    assert reassembly_is_zero_copy(TSO_MAX_BYTES, JUMBO_MTU_VRIO)
    assert not reassembly_is_zero_copy(TSO_MAX_BYTES, 9000)
    rng = random.Random(seed)
    size = rng.randrange(1, TSO_MAX_BYTES + 1)
    assert reassembly_is_zero_copy(size, JUMBO_MTU_VRIO)


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_reassembly_any_arrival_order(seed):
    rng = random.Random(seed)
    buf = ReassemblyBuffer(mtu=JUMBO_MTU_VRIO)
    size = rng.randrange(1, TSO_MAX_BYTES + 1)
    sizes = segment_sizes(size, JUMBO_MTU_VRIO)
    segments = [Segment(message_id=seed, index=i, count=len(sizes),
                        payload_bytes=s, message_bytes=size)
                for i, s in enumerate(sizes)]
    rng.shuffle(segments)
    # A duplicate arriving before completion must be idempotent.  (One
    # arriving *after* completion legitimately opens a fresh partial
    # context — that case is pinned separately below.)
    if len(segments) > 1 and rng.random() < 0.5:
        segments.insert(1, segments[0])
    done = None
    for seg in segments:
        result = buf.add(seg)
        if result is not None:
            assert done is None, "message completed twice"
            done = result
    assert done is not None
    assert done["message_bytes"] == size
    assert done["fragments"] == len(sizes)
    assert done["zero_copy"] == reassembly_is_zero_copy(
        size, JUMBO_MTU_VRIO)
    assert buf.pending == 0


def test_late_duplicate_reopens_partial_context():
    """A retransmitted fragment arriving after its message completed is
    indistinguishable from a new message's first fragment: it opens a
    fresh partial context, which ``drop_message`` (timeout path) clears."""
    buf = ReassemblyBuffer(mtu=JUMBO_MTU_VRIO)
    seg = Segment(message_id=1, index=0, count=1,
                  payload_bytes=100, message_bytes=100)
    assert buf.add(seg) is not None
    assert buf.add(Segment(message_id=1, index=0, count=1,
                           payload_bytes=100, message_bytes=100)) is not None
    assert buf.completed_messages == 2
    late = Segment(message_id=2, index=0, count=2,
                   payload_bytes=50, message_bytes=100)
    assert buf.add(late) is None
    assert buf.pending == 1
    buf.drop_message(2)
    assert buf.pending == 0


@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_reassembly_interleaved_messages(seed):
    rng = random.Random(seed)
    buf = ReassemblyBuffer(mtu=JUMBO_MTU_VRIO)
    messages = {}
    pool = []
    for m in range(rng.randrange(2, 5)):
        size = rng.randrange(1, TSO_MAX_BYTES + 1)
        sizes = segment_sizes(size, JUMBO_MTU_VRIO)
        messages[(seed, m)] = size
        pool.extend(
            Segment(message_id=(seed, m), index=i, count=len(sizes),
                    payload_bytes=s, message_bytes=size)
            for i, s in enumerate(sizes))
    rng.shuffle(pool)
    completed = {}
    for seg in pool:
        result = buf.add(seg)
        if result is not None:
            completed[result["message_id"]] = result["message_bytes"]
    assert completed == messages
    assert buf.completed_messages >= len(messages)


@given(SEEDS)
@settings(max_examples=200, deadline=None)
def test_pages_never_negative(seed):
    rng = random.Random(seed)
    assert pages_for_fragment(rng.randrange(0, 20_000),
                              rng.randrange(0, 256)) >= 0


# -- virtio ring --------------------------------------------------------------

@given(SEEDS)
@settings(max_examples=150, deadline=None)
def test_virtqueue_kick_and_conservation_laws(seed):
    """Under any random post/service/complete interleaving:
    kicks + suppressed == posts, and requests are conserved."""
    rng = random.Random(seed)
    env = Environment()
    vq = Virtqueue(env, size=rng.choice([4, 16, 256]))
    if rng.random() < 0.3:
        vq.disable_kicks()
    posted = completed = reaped = 0
    outstanding = 0
    for _ in range(rng.randrange(1, 60)):
        action = rng.random()
        if action < 0.5 and outstanding < vq.size:
            need_kick = vq.add_avail(
                VirtioRequest(kind="net_tx", size_bytes=64))
            posted += 1
            outstanding += 1
            if need_kick and rng.random() < 0.8:
                vq.kick_serviced()
        elif action < 0.8:
            ok, request = vq.try_get_avail()
            if ok:
                vq.add_used(request)
                completed += 1
        else:
            ok, _request = vq.try_get_used()
            if ok:
                reaped += 1
    assert vq.posted.value == posted
    assert vq.kicks.value + vq.kicks_suppressed.value == posted
    assert vq.completed.value == completed
    # Conservation: everything posted is pending, in flight, or done.
    assert posted == vq.avail_pending + completed
    assert completed == vq.used_pending + reaped
    if not vq.kick_notifications_enabled:
        assert vq.kicks.value == 0


def test_virtqueue_overflow_is_a_frontend_bug():
    env = Environment()
    vq = Virtqueue(env, size=2)
    vq.add_avail(VirtioRequest(kind="net_tx", size_bytes=1))
    vq.add_avail(VirtioRequest(kind="net_tx", size_bytes=1))
    with pytest.raises(BufferError):
        vq.add_avail(VirtioRequest(kind="net_tx", size_bytes=1))
    assert vq.full_rejections.value == 1
    assert vq.posted.value == 2


# -- engine + core under random load -----------------------------------------

@given(SEEDS)
@settings(max_examples=100, deadline=None)
def test_random_timeouts_fire_in_order(seed):
    rng = random.Random(seed)
    env = Environment()
    fired = []
    delays = [rng.randrange(0, 10_000) for _ in range(20)]

    def waiter(env, delay):
        yield env.timeout(delay)
        fired.append(delay)

    for delay in delays:
        env.process(waiter(env, delay))
    env.run()
    assert fired == sorted(delays)
    assert env.now == max(delays)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_core_ledger_balances_under_random_load(seed):
    """Random work mixes on halt/poll/mwait cores always satisfy the
    invariant battery — the checker doubles as the property oracle."""
    rng = random.Random(seed)
    env = Environment()
    core = Core(env, f"fuzz{seed}", ghz=rng.choice([1.0, 2.2, 3.0]),
                idle_policy=rng.choice(Core.IDLE_POLICIES))
    total = 0

    def load(env):
        nonlocal total
        for _ in range(rng.randrange(1, 15)):
            if rng.random() < 0.3:
                yield env.timeout(rng.randrange(0, 5_000))
            cycles = rng.randrange(0, 50_000)
            total += cycles
            yield core.execute(cycles, tag=rng.choice("abc"),
                               useful=rng.random() < 0.9,
                               high_priority=rng.random() < 0.2)

    env.process(load(env))
    env.run()
    assert core.total_cycles == total
    assert check_core(core, env.now) == []
