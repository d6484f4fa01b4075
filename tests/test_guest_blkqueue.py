"""Unit + property tests for the guest disk scheduler invariant (§4.5).

vRIO's retransmission safety rests on: at most one outstanding request per
block, subsequent requests for that block held pending.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.guest import GuestBlockScheduler
from repro.hw import BlockRequest
from repro.sim import Environment


class FakeDriver:
    """Driver that completes requests after a fixed delay and records the
    set of concurrently outstanding sectors."""

    def __init__(self, env, delay=1000):
        self.env = env
        self.delay = delay
        self.outstanding = set()
        self.max_overlap_violations = 0
        self.submitted = []

    def submit(self, request):
        sectors = set(range(request.sector, request.sector + request.sectors))
        if sectors & self.outstanding:
            self.max_overlap_violations += 1
        self.outstanding |= sectors
        self.submitted.append(request)
        done = self.env.event()

        def complete():
            self.outstanding -= sectors
            done.succeed(request)

        self.env.call_soon(complete, delay=self.delay)
        return done


def test_disjoint_requests_proceed_concurrently():
    env = Environment()
    driver = FakeDriver(env)
    sched = GuestBlockScheduler(env, driver.submit)
    finish = []

    def issue(env, sector):
        yield sched.submit(BlockRequest(op="read", sector=sector,
                                        size_bytes=512))
        finish.append((sector, env.now))

    env.process(issue(env, 0))
    env.process(issue(env, 100))
    env.run()
    assert finish == [(0, 1000), (100, 1000)]  # concurrent, not serialized
    assert sched.held_back.value == 0


def test_same_sector_requests_serialize():
    env = Environment()
    driver = FakeDriver(env)
    sched = GuestBlockScheduler(env, driver.submit)
    finish = []

    def issue(env, tag):
        yield sched.submit(BlockRequest(op="write", sector=0,
                                        size_bytes=512))
        finish.append((tag, env.now))

    env.process(issue(env, "first"))
    env.process(issue(env, "second"))
    env.run()
    assert finish == [("first", 1000), ("second", 2000)]
    assert sched.held_back.value == 1
    assert driver.max_overlap_violations == 0


def test_overlapping_ranges_serialize():
    env = Environment()
    driver = FakeDriver(env)
    sched = GuestBlockScheduler(env, driver.submit)
    finish = []

    def issue(env, sector, size, tag):
        yield sched.submit(BlockRequest(op="write", sector=sector,
                                        size_bytes=size))
        finish.append((tag, env.now))

    env.process(issue(env, 0, 4096, "big"))  # sectors 0..7
    env.process(issue(env, 7, 512, "tail"))  # sector 7 overlaps
    env.run()
    assert finish == [("big", 1000), ("tail", 2000)]
    assert sched.held_back.value == 1
    assert driver.max_overlap_violations == 0


def test_adjacent_ranges_proceed_concurrently():
    env = Environment()
    driver = FakeDriver(env)
    sched = GuestBlockScheduler(env, driver.submit)
    finish = []

    def issue(env, sector, size, tag):
        yield sched.submit(BlockRequest(op="write", sector=sector,
                                        size_bytes=size))
        finish.append((tag, env.now))

    env.process(issue(env, 0, 4096, "big"))  # sectors 0..7
    env.process(issue(env, 8, 512, "next"))  # sector 8 is adjacent
    env.run()
    assert finish == [("big", 1000), ("next", 1000)]
    assert sched.held_back.value == 0
    assert sched.outstanding_sectors == set()


def test_fifo_admission_no_starvation():
    """A pending conflicting request blocks later requests from jumping
    the queue (strict FIFO), so it can never starve."""
    env = Environment()
    driver = FakeDriver(env)
    sched = GuestBlockScheduler(env, driver.submit)
    finish = []

    def issue(env, sector, tag):
        yield sched.submit(BlockRequest(op="write", sector=sector,
                                        size_bytes=512))
        finish.append(tag)

    env.process(issue(env, 0, "a"))     # dispatched
    env.process(issue(env, 0, "b"))     # conflicts, pends
    env.process(issue(env, 50, "c"))    # disjoint but queued behind b
    env.run()
    assert finish == ["a", "b", "c"]


def test_completion_value_is_request():
    env = Environment()
    driver = FakeDriver(env)
    sched = GuestBlockScheduler(env, driver.submit)
    request = BlockRequest(op="read", sector=3, size_bytes=512)

    def issue(env):
        result = yield sched.submit(request)
        return result

    p = env.process(issue(env))
    env.run()
    assert p.value is request


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=15),
                          st.sampled_from([512, 1024, 4096])),
                min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_invariant_never_violated_under_random_load(reqs):
    """Property: the driver NEVER sees two in-flight requests touching the
    same sector, for any submission pattern."""
    env = Environment()
    driver = FakeDriver(env, delay=700)
    sched = GuestBlockScheduler(env, driver.submit)
    completed = []

    def issue(env, sector, size):
        yield sched.submit(BlockRequest(op="write", sector=sector,
                                        size_bytes=size))
        completed.append(sector)

    for sector, size in reqs:
        env.process(issue(env, sector, size))
    env.run()
    assert driver.max_overlap_violations == 0
    assert len(completed) == len(reqs)
