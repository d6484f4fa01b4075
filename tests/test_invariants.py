"""The invariant checker itself: it must pass clean runs and, more
importantly, actually catch each class of accounting corruption."""

import pytest

from repro.hw.cpu import Core
from repro.iomodels.base import IoEventStats
from repro.sim import Environment
from repro.testing import (
    InvariantViolation,
    assert_no_violations,
    check_conservation,
    check_core,
    check_event_stats,
    check_port,
    verify_testbed,
)


# -- core accounting ----------------------------------------------------------

def _run_core(cycles=(1_000, 2_000, 3_000)):
    env = Environment()
    core = Core(env, "testcore", ghz=2.0)
    for i, c in enumerate(cycles):
        core.execute(c, tag=f"tag{i % 2}")
    env.run()
    return env, core


def test_clean_core_passes():
    env, core = _run_core()
    assert check_core(core, env.now) == []


def test_corrupted_tag_ledger_is_caught():
    env, core = _run_core()
    core.cycles_by_tag["tag0"] += 17
    violations = check_core(core, env.now)
    assert any(v.invariant == "cycle-ledger" for v in violations)


def test_busy_time_exceeding_wall_time_is_caught():
    env, core = _run_core()
    core.util._busy_ns = env.now + 1_000_000
    violations = check_core(core, env.now)
    assert any(v.invariant == "core-accounting" for v in violations)


def test_useful_above_busy_is_caught():
    env, core = _run_core()
    core.util._useful_ns = core.util.busy_ns + 5
    violations = check_core(core, env.now)
    assert any(v.invariant == "core-accounting" for v in violations)


def test_poll_core_full_busy_is_legal():
    """A polling sidecore is 100% busy by design — not a violation."""
    env = Environment()
    core = Core(env, "sidecore", ghz=2.0, poll_mode=True)
    core.execute(10_000)
    env.run()
    assert check_core(core, env.now) == []


# -- ports / stats / conservation --------------------------------------------

class _FakeCounter:
    def __init__(self, name, value):
        self.name, self.value = name, value


class _FakePort:
    def __init__(self, tx_m=10, rx_m=10, tx_b=640, rx_b=640):
        self.mac = 0xAA
        self.tx_messages = _FakeCounter("tx_messages", tx_m)
        self.rx_messages = _FakeCounter("rx_messages", rx_m)
        self.tx_bytes = _FakeCounter("tx_bytes", tx_b)
        self.rx_bytes = _FakeCounter("rx_bytes", rx_b)


def test_clean_port_passes():
    assert check_port(_FakePort()) == []


def test_sub_byte_messages_are_caught():
    violations = check_port(_FakePort(rx_m=100, rx_b=50))
    assert any(v.invariant == "bytes-per-message" for v in violations)


def test_negative_counter_is_caught():
    violations = check_port(_FakePort(tx_m=-1))
    assert any(v.invariant == "counter-sign" for v in violations)


def test_event_stats_checks():
    stats = IoEventStats("test")
    assert check_event_stats(stats) == []
    stats.exits.add(-3)
    assert any(v.invariant == "counter-sign"
               for v in check_event_stats(stats))


class _FakeTestbed:
    model_name = "fake"

    def __init__(self, ports, clients):
        self.ports, self.clients = ports, clients


def test_conservation_allows_drops_and_inflight():
    tb = _FakeTestbed([_FakePort(tx_m=100, rx_m=80)], [])
    assert check_conservation(tb) == []


def test_conjured_messages_are_caught():
    tb = _FakeTestbed([_FakePort(tx_m=10, rx_m=50)], [])
    violations = check_conservation(tb)
    assert any(v.invariant == "message-conservation" for v in violations)


# -- whole-testbed audit ------------------------------------------------------

def test_verify_testbed_clean_on_real_run(scenario_run):
    result = scenario_run("rr_elvis")
    assert verify_testbed(result.testbed) == []


def test_verify_testbed_catches_injected_corruption(scenario_run):
    # Run privately (not via the session cache) because we corrupt it.
    from repro.testing import run_scenario
    result = run_scenario("stream_elvis")
    core = result.testbed.service_cores[0]
    core.cycles_by_tag["work"] = core.cycles_by_tag.get("work", 0) + 1
    violations = verify_testbed(result.testbed)
    assert any(v.invariant == "cycle-ledger" for v in violations)


def test_assert_no_violations_formats_report():
    violations = [InvariantViolation("cycle-ledger", "core0", "off by 17"),
                  InvariantViolation("counter-sign", "port", "tx=-1")]
    with pytest.raises(AssertionError) as exc:
        assert_no_violations(violations)
    message = str(exc.value)
    assert "2 simulation invariant(s)" in message
    assert "cycle-ledger" in message and "counter-sign" in message
    assert_no_violations([])  # empty list is silent
