"""Property-based tests: the event kernel against a pure-heapq oracle.

:class:`repro.testing.HeapOracle` is the reference ordering: one heap of
``(time, seq, fn)`` in which every schedule, zero-delay included, takes
a sequence number.  The kernel splits the same work across a ready
deque and a timer heap; these tests run one random program on both and
demand the same dispatch order, the same clock after every
``run(until)``, the same ``peek`` and — with monitors attached — the same
clock advances.  Programs schedule from inside callbacks through every
kernel entry point, mix zero and positive delays with heavy timestamp
ties, and exercise both the fast and the monitored run loop.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Environment
from repro.testing import HeapOracle

# Kernel entry points a program schedules through; the oracle mirrors
# each with plain call_soon hops.
_CALL_SOON, _TIMEOUT, _SCHEDULE_AT, _PROCESS, _EVENT = range(5)


def _env_schedule(env, entry, fn, delay):
    if entry == _CALL_SOON:
        env.call_soon(fn, delay)
    elif entry == _TIMEOUT:
        env.timeout(delay).add_callback(lambda _ev: fn())
    elif entry == _SCHEDULE_AT:
        env.schedule_at(env.now + delay, fn)
    elif entry == _PROCESS:
        def proc():
            yield env.timeout(delay)
            fn()
        env.process(proc())
    else:  # an event triggered by a timer
        event = env.event()
        event.add_callback(lambda _ev: fn())
        env.call_soon(event.succeed, delay)


def _oracle_schedule(oracle, entry, fn, delay):
    if entry == _PROCESS:  # start hop, then the timeout
        oracle.call_soon(lambda: oracle.call_soon(fn, delay))
    elif entry == _EVENT:  # the timer, then the triggered event
        oracle.call_soon(lambda: oracle.call_soon(fn), delay)
    elif entry == _SCHEDULE_AT:
        oracle.schedule_at(oracle.now + delay, fn)
    else:
        oracle.call_soon(fn, delay)


def _delay(rng, scale):
    r = rng.random()
    if r < 0.35:
        return 0
    if r < 0.7:
        return rng.randrange(1, 8)  # dense equal-time ties
    return rng.randrange(1, scale)


class _Program:
    """One random program, run against either scheduler.

    Every draw from ``rng`` happens inside a dispatch, so two runs with
    equal seeds consume the stream identically exactly as long as they
    dispatch in the same order — any divergence shows up in ``log``.
    """

    def __init__(self, sched, schedule, rng, scale, budget, entries):
        self.sched = sched
        self.schedule = schedule
        self.rng = rng
        self.scale = scale
        self.budget = budget
        self.entries = entries
        self.log = []

    def node(self, tag):
        def fire():
            self.log.append((self.sched.now, tag))
            if len(self.log) >= self.budget:
                return
            for child in range(self.rng.choice((0, 1, 1, 2, 3))):
                self.spawn(f"{tag}.{child}")
        return fire

    def spawn(self, tag):
        self.schedule(self.sched, self.rng.choice(self.entries),
                      self.node(tag), _delay(self.rng, self.scale))


class _Advances:
    """Records what an ``on_advance``/``on_step`` monitor sees."""

    def __init__(self, env):
        self.env = env
        self.advances = []
        self.bad_steps = 0

    def on_advance(self, now):
        self.advances.append(now)

    def on_step(self, now, _item):
        self.bad_steps += now != self.env.now


def _run_both(seed, monitored=False, toggles=False,
              entries=tuple(range(5))):
    """Run one program on the kernel and the oracle; compare as they go."""
    shape = random.Random(seed)
    scale = shape.choice((16, 1_000, 100_000))
    budget = shape.randrange(50, 600)
    n_roots = shape.randrange(1, 12)
    phases = sorted(shape.randrange(0, scale * 4)
                    for _ in range(shape.randrange(0, 5)))

    env = Environment()
    oracle = HeapOracle()
    ours = _Program(env, _env_schedule, random.Random(seed + 1), scale,
                    budget, entries)
    ref = _Program(oracle, _oracle_schedule, random.Random(seed + 1), scale,
                   budget, entries)
    monitor = _Advances(env)
    if monitored:
        env.add_monitor(monitor)
    if toggles:
        # Attach and detach a monitor mid-run so the kernel switches
        # between its two loops at arbitrary points.  The toggles are
        # kernel-only timers, so only the program's log is compared.
        attached = [False]

        def toggle():
            if attached[0]:
                env.remove_monitor(monitor)
            else:
                env.add_monitor(monitor)
            attached[0] = not attached[0]
        for at in range(0, scale * 4, max(1, scale // 3)):
            env.schedule_at(at, toggle)

    for root in range(n_roots):
        ours.spawn(f"r{root}")
        ref.spawn(f"r{root}")
    for until in phases:
        until = max(until, env.now)
        if shape.random() < 0.3 and env.peek() is not None:
            until = env.peek()  # stop exactly on a pending timestamp
        env.run(until=until)
        oracle.run(until=until)
        assert ours.log == ref.log
        if not toggles:
            assert (env.now, env.peek()) == (oracle.now, oracle.peek())
        # Work injected from outside between runs.
        ours.spawn(f"x{until}")
        ref.spawn(f"x{until}")
    env.run()
    oracle.run()
    assert ours.log == ref.log
    assert env.peek() is None
    if not toggles:
        assert env.now == oracle.now
    if monitored:
        assert monitor.advances == oracle.advances
        assert monitor.bad_steps == 0
    return ours.log


SEEDS = st.integers(min_value=0, max_value=(1 << 30) - 1)


@given(SEEDS)
@settings(max_examples=120, deadline=None)
def test_random_programs_match_oracle_on_fast_loop(seed):
    log = _run_both(seed)
    assert log  # programs are never vacuous


@given(SEEDS)
@settings(max_examples=80, deadline=None)
def test_random_programs_match_oracle_on_monitored_loop(seed):
    _run_both(seed, monitored=True)


@given(SEEDS)
@settings(max_examples=60, deadline=None)
def test_loop_switches_mid_run_keep_oracle_order(seed):
    _run_both(seed, toggles=True)


@given(SEEDS, st.sampled_from((16, 1_000)))
@settings(max_examples=60, deadline=None)
def test_step_matches_oracle_step(seed, scale):
    """``step()`` dispatches exactly one oracle entry at a time."""
    env, oracle = Environment(), HeapOracle()
    # Entry points that map one-to-one onto oracle entries.
    entries = (_CALL_SOON, _TIMEOUT, _SCHEDULE_AT)
    ours = _Program(env, _env_schedule, random.Random(seed), scale,
                    300, entries)
    ref = _Program(oracle, _oracle_schedule, random.Random(seed), scale,
                   300, entries)
    for root in range(4):
        ours.spawn(f"r{root}")
        ref.spawn(f"r{root}")
    while oracle.peek() is not None:
        assert env.peek() == oracle.peek()
        env.step()
        oracle.step()
        assert (env.now, ours.log) == (oracle.now, ref.log)
    assert env.peek() is None


@given(SEEDS)
@settings(max_examples=25, deadline=None)
def test_run_until_equivalence_with_self_rescheduling_lanes(seed):
    """Lanes re-arming from their own callbacks stop identically."""
    def drive(sched, rng):
        log = []

        def tick(tag):
            def cb():
                log.append((sched.now, tag))
                nxt = rng.randrange(0, 2000)
                if len(log) < 400:
                    sched.call_soon(tick(tag), nxt)
            return cb

        for lane in range(8):
            sched.call_soon(tick(lane), 1 + lane)
        sched.run(until=50_000)
        return sched.now, sched.peek(), log

    assert drive(Environment(), random.Random(seed)) == \
        drive(HeapOracle(), random.Random(seed))


def test_fifo_ties_at_one_timestamp():
    env, oracle = Environment(), HeapOracle()
    got, want = [], []
    for i in range(500):
        env.call_soon(lambda i=i: got.append(i), 7 if i % 2 else 0)
        oracle.call_soon(lambda i=i: want.append(i), 7 if i % 2 else 0)
    env.run()
    oracle.run()
    assert got == want
    assert got[:250] == list(range(0, 500, 2))


def test_run_after_partial_step_finishes_the_timestamp_first():
    """Timers left due at ``now`` by ``step()`` precede newer ready work."""
    for monitored in (False, True):
        env, oracle = Environment(), HeapOracle()
        got, want = [], []
        if monitored:
            env.add_monitor(_Advances(env))
        for sched, log in ((env, got), (oracle, want)):
            def first(sched=sched, log=log):
                log.append("t1")
                sched.call_soon(lambda: log.append("ready"))
            sched.call_soon(first, 5)
            sched.call_soon(lambda log=log: log.append("t2"), 5)
            sched.step()
            sched.run()
        assert got == want == ["t1", "t2", "ready"]
