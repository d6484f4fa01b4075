"""Unit tests for the discrete-event kernel."""

import heapq

import pytest

from repro.sim import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)
from repro.telemetry.flight import _describe
from repro.testing import HeapOracle


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(5)
        done.append(env.now)
        yield env.timeout(7)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [5, 12]


def test_timeout_carries_value():
    env = Environment()
    seen = []

    def proc(env):
        value = yield env.timeout(3, value="hello")
        seen.append(value)

    env.process(proc(env))
    env.run()
    assert seen == ["hello"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_process_return_value_becomes_event_value():
    env = Environment()

    def inner(env):
        yield env.timeout(10)
        return 42

    def outer(env):
        result = yield env.process(inner(env))
        return result + 1

    p = env.process(outer(env))
    env.run()
    assert p.value == 43
    assert env.now == 10


def test_events_at_same_time_fifo():
    env = Environment()
    order = []

    def proc(env, tag):
        yield env.timeout(5)
        order.append(tag)

    for tag in ("a", "b", "c"):
        env.process(proc(env, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_clock_exactly():
    env = Environment()

    def proc(env):
        while True:
            yield env.timeout(10)

    env.process(proc(env))
    env.run(until=35)
    assert env.now == 35


def test_run_until_before_now_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_manual_event_succeed_wakes_waiter():
    env = Environment()
    gate = env.event()
    log = []

    def waiter(env):
        value = yield gate
        log.append((env.now, value))

    def firer(env):
        yield env.timeout(20)
        gate.succeed("opened")

    env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert log == [(20, "opened")]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_fail_raises_in_waiter():
    env = Environment()
    gate = env.event()
    caught = []

    def waiter(env):
        try:
            yield gate
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    gate.fail(RuntimeError("boom"))
    env.run()
    assert caught == ["boom"]


def test_fail_requires_exception_instance():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")


def test_waiting_on_processed_event_resumes_immediately():
    env = Environment()
    gate = env.event()
    gate.succeed("v")
    seen = []

    def late(env):
        yield env.timeout(50)
        value = yield gate
        seen.append((env.now, value))

    env.process(late(env))
    env.run()
    assert seen == [(50, "v")]


def test_process_interrupt_delivers_cause():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(1000)
        except Interrupt as intr:
            log.append((env.now, intr.cause))

    def killer(env, victim):
        yield env.timeout(30)
        victim.interrupt("wake up")

    victim = env.process(sleeper(env))
    env.process(killer(env, victim))
    env.run()
    assert log == [(30, "wake up")]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    assert not p.is_alive
    p.interrupt()  # must not raise
    env.run()


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 5

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_yield_non_event_after_wake_raises():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        yield 42

    env.process(bad(env), name="bad")
    with pytest.raises(SimulationError,
                       match="process 'bad' yielded 42, not an Event"):
        env.run()
    assert env.now == 1


def test_yield_foreign_event_after_wake_raises():
    env = Environment()
    other = Environment()

    def bad(env):
        yield env.timeout(1)
        yield other.event()

    env.process(bad(env))
    with pytest.raises(SimulationError,
                       match="yielded event belongs to another Environment"):
        env.run()
    assert env.now == 1


def test_interrupted_process_not_resumed_by_old_timeout():
    env = Environment()
    log = []
    first = []

    def sleeper(env):
        try:
            first.append(env.timeout(100))
            yield first[0]
        except Interrupt:
            log.append(("interrupted", env.now))
        value = yield env.timeout(500, value="new")
        log.append((value, env.now))

    def killer(env, victim):
        yield env.timeout(30)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(killer(env, victim))
    env.run(until=30)
    assert first[0].callbacks == ()
    env.run()
    assert log == [("interrupted", 30), ("new", 530)]


def test_yield_processed_event_resumes_on_next_step():
    env = Environment()
    gate = env.event()
    gate.succeed("v")
    env.step()
    assert gate.processed
    seen = []

    def late(env):
        value = yield gate
        seen.append(value)

    env.process(late(env))
    env.step()  # the process starts and yields the processed gate
    assert seen == []
    env.step()  # its deferred wake
    assert seen == ["v"]
    assert env.now == 0


def test_waiters_on_one_event_resume_in_registration_order():
    env = Environment()
    gate = env.event()
    order = []

    def waiter(env, tag):
        value = yield gate
        order.append((tag, value))

    for tag in ("a", "b", "c"):
        env.process(waiter(env, tag))
    env.run()
    assert order == []
    gate.succeed(7)
    env.run()
    assert order == [("a", 7), ("b", 7), ("c", 7)]


def test_all_of_collects_values_in_order():
    env = Environment()

    def proc(env):
        events = [env.timeout(30, value="late"), env.timeout(10, value="early")]
        values = yield env.all_of(events)
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == ["late", "early"]
    assert env.now == 30


def test_all_of_empty_succeeds_immediately():
    env = Environment()

    def proc(env):
        values = yield env.all_of([])
        return values

    p = env.process(proc(env))
    env.run()
    assert p.value == []


def test_any_of_returns_first_winner():
    env = Environment()

    def proc(env):
        fast = env.timeout(5, value="fast")
        slow = env.timeout(50, value="slow")
        winner, value = yield env.any_of([fast, slow])
        return value

    p = env.process(proc(env))
    env.run(until=100)
    assert p.value == "fast"


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(40)
    assert env.peek() == 40


def test_deterministic_two_runs_identical():
    def build():
        env = Environment()
        order = []

        def proc(env, tag, delay):
            yield env.timeout(delay)
            order.append((tag, env.now))

        for i in range(10):
            env.process(proc(env, i, (i * 7) % 5 + 1))
        env.run()
        return order

    assert build() == build()


# -- scheduler selection and combinator callback hygiene ---------------------


def test_anyof_detaches_losers_on_trigger():
    # Regression: a settled AnyOf must unhook from the losing events, or
    # every long-lived event accumulates dead callbacks (and fires into
    # settled races) for the rest of the run.
    env = Environment()
    fast = env.timeout(10, value="fast")
    slow = env.timeout(1_000_000, value="slow")
    race = env.any_of([fast, slow])
    env.run(until=20)
    assert race.ok and race.value == (fast, "fast")
    assert slow.callbacks == ()
    env.run(until=2_000_000)  # the loser still fires without incident
    assert slow.ok


def test_allof_detaches_outstanding_on_failure():
    env = Environment()
    doomed = Event(env)
    pending = env.timeout(1_000_000)
    both = env.all_of([doomed, pending])
    doomed.fail(RuntimeError("boom"))
    env.run(until=10)
    assert both.triggered and not both.ok
    assert pending.callbacks == ()


@pytest.mark.parametrize("schedule", [
    lambda env: env.timeout(1.5),
    lambda env: env.call_soon(lambda: None, delay=2.5),
    lambda env: env.schedule_at(3.5, lambda: None),
], ids=["timeout", "call_soon", "schedule_at"])
def test_float_delay_rejected(schedule):
    env = Environment()
    with pytest.raises(SimulationError, match=r"integer number of ns, got \d\.5"):
        schedule(env)
    assert env.peek() is None  # nothing half-scheduled


@pytest.mark.parametrize("schedule, message", [
    (lambda env: env.call_soon(lambda: None, -3),
     "negative call_soon delay: -3"),
    (lambda env: env.call_soon(lambda: None, None),
     "delay must be an integer number of ns, got None"),
    (lambda env: env.timeout(None),
     "delay must be an integer number of ns, got None"),
    (lambda env: env.timeout("5"),
     "delay must be an integer number of ns, got '5'"),
    (lambda env: env.schedule_at(None, lambda: None),
     "time must be an integer number of ns, got None"),
    (lambda env: Timeout(env, -1), "negative timeout delay: -1"),
    (lambda env: Timeout(env, 1.5),
     "delay must be an integer number of ns, got 1.5"),
    (lambda env: env.timeout(0.0),
     "delay must be an integer number of ns, got 0.0"),
    (lambda env: env.call_soon(lambda: None, 0.0),
     "delay must be an integer number of ns, got 0.0"),
], ids=["call_soon-negative", "call_soon-None", "timeout-None",
        "timeout-str", "schedule_at-None", "Timeout-negative",
        "Timeout-float", "timeout-float-zero", "call_soon-float-zero"])
def test_bad_delay_rejected_at_the_call(schedule, message):
    env = Environment()
    env.run(until=10)
    with pytest.raises(SimulationError) as info:
        schedule(env)
    assert str(info.value) == message
    assert env.peek() is None  # nothing half-scheduled
    env.run()


def test_timers_and_triggered_events_are_exact_events():
    env = Environment()
    timers = [env.timeout(5), Timeout(env, 0), Timeout(env, 3, value="v")]
    for timer in timers:
        assert type(timer) is Event
        assert _describe(timer) == ("event", "Timeout")
    assert [timer.delay for timer in timers] == [5, 0, 3]
    plain = env.event()
    assert type(plain) is Event and plain.delay is None
    assert _describe(plain) == ("event", "Event")

    def proc(env):
        yield env.timeout(1)

    process = env.process(proc(env))
    assert process.delay is None
    assert _describe(process) == ("process", "proc")
    assert env.all_of([plain]).delay is None


def _returns_after_a_wake(env):
    yield env.timeout(5)
    return "done"


def _returns_at_start(env):
    return "done"
    yield  # a generator that never yields


def _interrupted_while_waiting(env):
    process = env.process(_returns_after_a_wake(env))
    env.call_soon(lambda: process.interrupt("stop"), delay=2)
    return process


def _woken_by_an_interrupt(env):
    failed = env.event()
    env.call_soon(lambda: failed.fail(Interrupt("stop")), delay=2)

    def waiter(env):
        yield failed

    return env.process(waiter(env))


# Each of the two resume paths (_resume for the start and interrupts,
# _on_event for wakes) triggers a finished process itself, both on
# return and on an unhandled Interrupt.
@pytest.mark.parametrize("start, finished", [
    (lambda env: env.process(_returns_after_a_wake(env)), (5, "done")),
    (lambda env: env.process(_returns_at_start(env)), (0, "done")),
    (_interrupted_while_waiting, (2, None)),
    (_woken_by_an_interrupt, (2, None)),
], ids=["wake-returns", "start-returns", "interrupted", "wake-interrupt"])
def test_finished_process_triggers_once(start, finished):
    env = Environment()
    process = start(env)
    seen = []
    process.add_callback(lambda ev: seen.append((env.now, ev.value)))
    env.run()
    assert not process.is_alive and process.ok
    assert seen == [finished]
    with pytest.raises(SimulationError, match="already triggered"):
        process.succeed()


def test_int_subclass_delays_accepted():
    class Ns(int):
        pass

    env = Environment()
    seen = []
    env.timeout(Ns(3)).add_callback(lambda ev: seen.append(("timeout", env.now)))
    env.call_soon(lambda: seen.append(("soon", env.now)), delay=Ns(2))
    env.schedule_at(Ns(4), lambda: seen.append(("at", env.now)))
    env.run()
    assert seen == [("soon", 2), ("timeout", 3), ("at", 4)]
    assert type(env.now) is int


def test_process_schedule_matches_heap_oracle():
    """Processes on timeouts dispatch in the single-heap reference order."""
    env = Environment()
    got = []

    def proc(env, tag, delay):
        for i in range(20):
            yield env.timeout(delay + (i % 3))
            got.append((env.now, tag))

    for tag in range(6):
        env.process(proc(env, tag, tag + 1))
    env.call_soon(lambda: got.append((env.now, "soon")))
    env.run()

    # The same program on the oracle: a process start is one zero-delay
    # hop, then one timer per timeout it yields.
    oracle = HeapOracle()
    want = []

    def resume(tag, delay, i=0):
        if i:
            want.append((oracle.now, tag))
        if i < 20:
            oracle.call_soon(lambda: resume(tag, delay, i + 1),
                             delay + (i % 3))

    for tag in range(6):
        oracle.call_soon(lambda tag=tag: resume(tag, tag + 1))
    oracle.call_soon(lambda: want.append((oracle.now, "soon")))
    oracle.run()
    assert got == want


# -- dispatch counters ---------------------------------------------------------

class _StepCounter:
    """Monitor counting steps, split the way the kernel counters are."""

    def __init__(self) -> None:
        self.events = 0
        self.callbacks = 0

    def on_step(self, now, item) -> None:
        if isinstance(item, Event):
            self.events += 1
        else:
            self.callbacks += 1


def _mixed_program(env):
    """Processes, timeouts, triggered events and bare callbacks, with
    several items due at each of a few timestamps."""
    gate = env.event()

    def proc(env, tag):
        for i in range(4):
            yield env.timeout(5 + (i + tag) % 2 * 5)
            env.call_soon(lambda: None)
        if tag == 0:
            gate.succeed(tag)
        else:
            yield gate

    for tag in range(3):
        env.process(proc(env, tag))
    for at in (0, 5, 10, 10, 25):
        env.schedule_at(at, lambda: None)
    env.call_soon(lambda: env.call_soon(lambda: None), delay=15)


def _step_all(env):
    while env.peek() is not None:
        env.step()


def _resume_mid_timestamp(env):
    env.run(until=10)
    env.step()  # the first item at 15 ns
    assert env.peek() == env.now == 15  # more is due at 15 ns
    env.run(until=20)
    env.step()
    env.run()


@pytest.mark.parametrize("drive, monitored", [
    (Environment.run, False),
    (Environment.run, True),
    (_step_all, False),
    (_resume_mid_timestamp, False),
    (_resume_mid_timestamp, True),
], ids=["fast", "monitored", "step", "resumed-fast", "resumed-monitored"])
def test_dispatch_counters_match_step_monitor(drive, monitored):
    reference = Environment()
    _mixed_program(reference)
    counter = _StepCounter()
    reference.add_monitor(counter)
    reference.run()
    want = (counter.events, counter.callbacks)
    assert want[0] > 10 and want[1] > 10

    env = Environment()
    _mixed_program(env)
    watcher = _StepCounter()
    if monitored:
        env.add_monitor(watcher)
    drive(env)
    assert (env.events_dispatched, env.callbacks_dispatched) == want
    if monitored:
        assert (watcher.events, watcher.callbacks) == want


@pytest.mark.parametrize("monitored", [False, True],
                         ids=["fast", "monitored"])
def test_dispatch_counters_survive_an_exception(monitored):
    env = Environment()
    if monitored:
        env.add_monitor(_StepCounter())

    def boom():
        raise RuntimeError("boom")

    env.timeout(5)
    env.call_soon(lambda: None, delay=5)
    env.call_soon(boom, delay=5)
    env.call_soon(lambda: None, delay=5)
    with pytest.raises(RuntimeError, match="boom"):
        env.run()
    # The raising item was dispatched; the one after it was not.
    assert (env.events_dispatched, env.callbacks_dispatched) == (1, 2)


def test_apache_vrio_dispatch_counts(scenario_run):
    env = scenario_run("apache_vrio").testbed.env
    assert (env.events_dispatched + env.callbacks_dispatched,
            env.events_dispatched) == (18_155, 14_319)


def test_monitor_not_attached_twice():
    def run(attach_times):
        env = Environment()
        counter = _StepCounter()
        for _ in range(attach_times):
            env.add_monitor(counter)
        _mixed_program(env)
        env.run()
        env.remove_monitor(counter)
        env.remove_monitor(counter)  # second removal is a no-op
        return counter

    single, double = run(1), run(2)
    # dedup: no double counting
    assert (double.events, double.callbacks) == (
        single.events, single.callbacks)


# -- the clock never runs backwards ----------------------------------------

def _stale_timer_env():
    """An environment whose timer heap holds an entry behind the clock,
    the state a scheduler bug would leave; nothing public can make it."""
    env = Environment()
    env.run(until=100)
    heapq.heappush(env._heap, (50, 0, lambda: None))
    return env


@pytest.mark.parametrize("monitored", [False, True],
                         ids=["fast", "monitored"])
def test_run_raises_on_timer_behind_clock(monitored):
    env = _stale_timer_env()
    if monitored:
        env.add_monitor(_StepCounter())
    with pytest.raises(SimulationError, match="time went backwards"):
        env.run()
    assert env.now == 100


def test_step_raises_on_timer_behind_clock():
    env = _stale_timer_env()
    with pytest.raises(SimulationError, match="time went backwards"):
        env.step()
    assert env.now == 100
