"""Unit tests for the open-loop session-load generator."""

import pytest

from repro.cluster import TestbedSpec, build_testbed
from repro.sim import RngRegistry, ms
from repro.workloads import OpenLoopRR, bounded_pareto


def make_gen(tb, rng, **kw):
    kw.setdefault("warmup_ns", 0)
    return OpenLoopRR(tb.env, tb.clients[0], tb.ports[0],
                      arrivals_rng=rng.stream("openloop-0-arrivals"),
                      size_rng=rng.stream("openloop-0-sizes"),
                      phase_rng=rng.stream("openloop-0-phase"), **kw)


def run_openloop(seed=7, run_ns=ms(10), **kw):
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    gen = make_gen(tb, RngRegistry(seed), **kw)
    tb.env.run(until=run_ns)
    return gen


# ---------------------------------------------------------------------------
# Arrival process
# ---------------------------------------------------------------------------

def test_homogeneous_arrival_count_matches_rate():
    # amplitude 0, burst 1: the thinning degenerates to a plain Poisson
    # process, so over T the count is lambda*T +- a few sqrt(lambda*T).
    gen = run_openloop(users=100, rate_per_user_hz=1_000.0,
                      diurnal_amplitude=0.0, burst_factor=1.0)
    expect = 100 * 1_000 * 10e-3                     # lambda * T = 1000
    sigma = expect ** 0.5
    assert abs(gen._next_req - expect) < 5 * sigma


def test_open_loop_does_not_self_throttle():
    # Offered load is fired regardless of completions: at an absurd rate
    # the backlog (offered - transactions) grows instead of the arrival
    # count collapsing to the service rate, which is the whole point of
    # an open loop.
    gen = run_openloop(users=2_000, rate_per_user_hz=5_000.0,
                      run_ns=ms(4))
    assert gen.offered > gen.transactions
    assert gen.offered - gen.transactions > 100


def test_latencies_matched_by_request_id():
    gen = run_openloop(users=20, rate_per_user_hz=500.0)
    assert gen.transactions > 0
    assert gen.latency_ns.count == gen.transactions
    assert all(sample > 0 for sample in gen.latency_ns.samples)
    # Whatever was not matched is still awaiting a response.
    assert len(gen._sent_ns) == gen._next_req - gen.latency_ns.count


def test_replay_is_bit_identical():
    a = run_openloop(users=50, rate_per_user_hz=1_000.0,
                     diurnal_amplitude=0.3, burst_factor=2.0)
    b = run_openloop(users=50, rate_per_user_hz=1_000.0,
                     diurnal_amplitude=0.3, burst_factor=2.0)
    assert a._next_req == b._next_req
    assert a.offered == b.offered
    assert a.transactions == b.transactions
    assert a.latency_ns.samples == b.latency_ns.samples


# ---------------------------------------------------------------------------
# Rate curve
# ---------------------------------------------------------------------------

def test_diurnal_curve_modulates_rate():
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    gen = make_gen(tb, RngRegistry(0), users=10, rate_per_user_hz=100.0,
                   diurnal_amplitude=0.5, diurnal_period_ns=1_000_000)
    base = 10 * 100.0
    assert gen.rate_hz(0) == pytest.approx(base)
    assert gen.rate_hz(250_000) == pytest.approx(base * 1.5)   # sin peak
    assert gen.rate_hz(750_000) == pytest.approx(base * 0.5)   # sin trough
    assert gen.peak_rate_hz == pytest.approx(base * 1.5)


def test_burst_state_doubles_rate():
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    gen = make_gen(tb, RngRegistry(0), users=10, burst_factor=2.0)
    calm = gen.rate_hz(0)
    gen._burst_state = 1
    assert gen.rate_hz(0) == pytest.approx(2.0 * calm)
    assert gen.peak_rate_hz == pytest.approx(2.0 * calm)


def test_mmpp_modulator_flips_state():
    gen = run_openloop(users=10, rate_per_user_hz=100.0,
                      burst_factor=3.0, burst_dwell_ns=50_000,
                      run_ns=ms(2))
    # ~40 expected dwell expiries in 2 ms; the chain must have moved.
    assert gen._next_req >= 0
    assert gen.peak_rate_hz == pytest.approx(3.0 * 10 * 100.0)


# ---------------------------------------------------------------------------
# Sizes and validation
# ---------------------------------------------------------------------------

def test_bounded_pareto_stays_in_bounds_and_is_heavy_tailed():
    rng = RngRegistry(3).stream("sizes")
    draws = [bounded_pareto(rng, 1.3, 64.0, 16_384.0) for _ in range(5_000)]
    assert all(64.0 <= d <= 16_384.0 for d in draws)
    draws.sort()
    median = draws[len(draws) // 2]
    mean = sum(draws) / len(draws)
    assert mean > 2 * median        # heavy tail: mean far above median


@pytest.mark.parametrize("kw", [
    {"users": 0},
    {"rate_per_user_hz": 0.0},
    {"diurnal_amplitude": 1.0},
    {"burst_factor": 0.5},
    {"size_low": 0},
    {"size_low": 4_096, "size_high": 64},
])
def test_generator_validation(kw):
    tb = build_testbed(TestbedSpec(model="vrio", vms_per_host=1))
    with pytest.raises(ValueError):
        make_gen(tb, RngRegistry(0), **kw)
