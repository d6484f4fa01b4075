"""Unit tests for Store, PriorityStore, and Resource."""

import pytest

from repro.sim import Environment, Resource, SimulationError, Store
from repro.sim.queues import PriorityStore


def run(env, gen):
    p = env.process(gen)
    env.run()
    return p.value


def test_store_fifo_order():
    env = Environment()
    store = Store(env)

    def proc(env):
        yield store.put("a")
        yield store.put("b")
        first = yield store.get()
        second = yield store.get()
        return [first, second]

    assert run(env, proc(env)) == ["a", "b"]


def test_store_get_blocks_until_put():
    env = Environment()
    store = Store(env)
    log = []

    def consumer(env):
        item = yield store.get()
        log.append((env.now, item))

    def producer(env):
        yield env.timeout(25)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert log == [(25, "x")]


def test_store_capacity_blocks_put():
    env = Environment()
    store = Store(env, capacity=1)
    log = []

    def producer(env):
        yield store.put(1)
        log.append(("put1", env.now))
        yield store.put(2)
        log.append(("put2", env.now))

    def consumer(env):
        yield env.timeout(40)
        item = yield store.get()
        log.append(("got", item, env.now))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert ("put1", 0) in log
    # put2 can only complete once the consumer frees a slot at t=40.
    assert ("put2", 40) in log


def test_store_try_put_respects_capacity():
    env = Environment()
    store = Store(env, capacity=2)
    assert store.try_put(1)
    assert store.try_put(2)
    assert not store.try_put(3)
    assert len(store) == 2


def test_store_try_get():
    env = Environment()
    store = Store(env)
    ok, item = store.try_get()
    assert not ok and item is None
    store.try_put("y")
    ok, item = store.try_get()
    assert ok and item == "y"


def test_store_multiple_getters_fifo():
    env = Environment()
    store = Store(env)
    got = []

    def consumer(env, tag):
        item = yield store.get()
        got.append((tag, item))

    env.process(consumer(env, "first"))
    env.process(consumer(env, "second"))

    def producer(env):
        yield env.timeout(1)
        yield store.put("a")
        yield store.put("b")

    env.process(producer(env))
    env.run()
    assert got == [("first", "a"), ("second", "b")]


def test_store_zero_capacity_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        Store(env, capacity=0)


def test_priority_store_orders_items():
    env = Environment()
    store = PriorityStore(env)

    def proc(env):
        yield store.put(3)
        yield store.put(1)
        yield store.put(2)
        out = []
        for _ in range(3):
            item = yield store.get()
            out.append(item)
        return out

    assert run(env, proc(env)) == [1, 2, 3]


def test_priority_store_try_get_returns_smallest_unwrapped():
    env = Environment()
    store = PriorityStore(env)
    for item in (5, 1, 3):
        store.put(item)
    assert store.try_get() == (True, 1)
    assert store.try_get() == (True, 3)
    assert store.try_get() == (True, 5)
    assert store.try_get() == (False, None)


def test_resource_serializes_users():
    env = Environment()
    core = Resource(env, capacity=1)
    log = []

    def user(env, tag, hold):
        req = core.request()
        yield req
        log.append((tag, "start", env.now))
        yield env.timeout(hold)
        core.release()
        log.append((tag, "end", env.now))

    env.process(user(env, "a", 10))
    env.process(user(env, "b", 5))
    env.run()
    assert log == [
        ("a", "start", 0),
        ("a", "end", 10),
        ("b", "start", 10),
        ("b", "end", 15),
    ]


def test_resource_capacity_two_runs_concurrently():
    env = Environment()
    res = Resource(env, capacity=2)
    starts = []

    def user(env, tag):
        yield res.request()
        starts.append((tag, env.now))
        yield env.timeout(10)
        res.release()

    for tag in ("a", "b", "c"):
        env.process(user(env, tag))
    env.run()
    assert starts == [("a", 0), ("b", 0), ("c", 10)]


def test_resource_release_without_request_raises():
    env = Environment()
    res = Resource(env)
    with pytest.raises(SimulationError):
        res.release()


def test_resource_queue_length_visible():
    env = Environment()
    res = Resource(env, capacity=1)
    res.request()
    res.request()
    res.request()
    assert res.in_use == 1
    assert res.queue_length == 2
