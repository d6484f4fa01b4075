"""Tests for the parallel sweep executor and its persistent result cache.

Covers the PR's acceptance criteria directly: serial and parallel runs
of the same artifact are byte-identical; cache hits/misses/invalidation
behave as addressed content (a cost-model change must miss); corrupted
cache entries fall back to recomputation; and a warm-cache fig13 re-run
is at least 5x faster than the cold run.
"""

import dataclasses
import json
import time

import pytest

from repro.experiments.executor import (
    CacheStats, SweepCache, canonical_json, code_version, cost_fingerprint,
    point_digest, point_key, resolve_jobs, sweep,
)
from repro.experiments.consolidation_experiments import run_fig16a
from repro.experiments.energy_experiments import run_energy
from repro.experiments.latency_experiments import run_fig07
from repro.experiments.scalability_experiments import run_fig13b
from repro.experiments.tab03_events import run_tab03
from repro.iomodels.costs import DEFAULT_COSTS
from repro.sim import ms


# ---------------------------------------------------------------------------
# plumbing: jobs resolution, canonical JSON, key material
# ---------------------------------------------------------------------------

def test_resolve_jobs():
    assert resolve_jobs(1) == 1
    assert resolve_jobs(3) == 3
    assert resolve_jobs("auto") >= 1
    assert resolve_jobs(None) >= 1
    assert resolve_jobs(0) >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_canonical_json_is_deterministic():
    assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'
    # Key order must not matter.
    assert canonical_json({"x": 1, "y": 2}) == canonical_json({"y": 2, "x": 1})


def test_cost_fingerprint_tracks_fields():
    base = cost_fingerprint(None)
    assert base == cost_fingerprint(DEFAULT_COSTS)
    assert base != cost_fingerprint(DEFAULT_COSTS.copy(link_gbps=40.0))


def test_point_digest_separates_records_and_params():
    k1 = point_key("rr", {"n": 1}, None)
    assert point_digest(k1) == point_digest(point_key("rr", {"n": 1}, None))
    assert point_digest(k1) != point_digest(
        point_key("stream", {"n": 1}, None))
    assert point_digest(k1) != point_digest(point_key("rr", {"n": 2}, None))
    assert k1["code"] == code_version()


# ---------------------------------------------------------------------------
# serial vs parallel equivalence (bytes-equal) over four artifacts
# ---------------------------------------------------------------------------

ARTIFACT_RUNS = {
    "fig7": lambda jobs: run_fig07(vm_counts=(1,), run_ns=ms(4), jobs=jobs),
    "tab3": lambda jobs: run_tab03(jobs=jobs),
    "energy": lambda jobs: run_energy(vm_counts=(1,), run_ns=ms(4),
                                      jobs=jobs),
    # Webserver filesets are memoized per process: the serial run and
    # each pool worker keep their own memo and hit it a different number
    # of times.
    "fig16a": lambda jobs: run_fig16a(run_ns=ms(4), jobs=jobs),
}


def _as_bytes(result):
    """Canonical byte encoding of a run_* result for equality checks."""
    if isinstance(result, list) and result and dataclasses.is_dataclass(
            result[0]):
        result = [dataclasses.asdict(p) for p in result]
    return canonical_json(result).encode()


@pytest.mark.parametrize("artifact", sorted(ARTIFACT_RUNS))
def test_serial_and_parallel_runs_are_byte_identical(artifact):
    run = ARTIFACT_RUNS[artifact]
    serial = _as_bytes(run(1))
    parallel = _as_bytes(run(2))
    assert serial == parallel


# ---------------------------------------------------------------------------
# cache behaviour
# ---------------------------------------------------------------------------

def _square(params):
    return {"n": params["n"], "sq": params["n"] ** 2}


CALL_LOG = []


def _logged_square(params):
    CALL_LOG.append(params["n"])
    return _square(params)


def test_cache_miss_then_hit(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    points = [{"n": n} for n in (1, 2, 3)]
    first = sweep(points, _square, record="t", cache=cache)
    assert cache.stats == CacheStats(hits=0, misses=3, corrupted=0, stores=3)

    cache2 = SweepCache(tmp_path / "cache")
    second = sweep(points, _square, record="t", cache=cache2)
    assert cache2.stats == CacheStats(hits=3, misses=0, corrupted=0, stores=0)
    assert canonical_json(first) == canonical_json(second)


def test_cache_skips_recompute_on_hit(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    points = [{"n": 7}]
    CALL_LOG.clear()
    sweep(points, _logged_square, record="t", cache=cache)
    sweep(points, _logged_square, record="t", cache=cache)
    assert CALL_LOG == [7]  # second sweep never called the point function


def test_cost_model_change_misses(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    points = [{"n": 5}]
    sweep(points, _square, record="t", cache=cache, costs=DEFAULT_COSTS)
    assert cache.stats.stores == 1
    # Same record + params, recalibrated cost model: must not replay.
    tweaked = DEFAULT_COSTS.copy(worker_per_byte_cycles=9.99)
    sweep(points, _square, record="t", cache=cache, costs=tweaked)
    assert cache.stats.misses == 2 and cache.stats.hits == 0
    assert cache.stats.stores == 2


def test_record_namespace_misses(tmp_path):
    """Two record names over the same params never share an entry."""
    cache = SweepCache(tmp_path / "cache")
    points = [{"n": 5}]
    sweep(points, _square, record="a", cache=cache)
    sweep(points, _square, record="b", cache=cache)
    assert cache.stats.hits == 0 and cache.stats.misses == 2


def test_corrupted_entry_recomputes(tmp_path):
    cache = SweepCache(tmp_path / "cache")
    points = [{"n": 4}]
    expect = sweep(points, _square, record="t", cache=cache)

    # Truncate the entry mid-JSON, as a crashed writer might have.
    key = point_key("t", points[0], None)
    path = cache.path_for(point_digest(key))
    path.write_text('{"key": {"rec')

    cache2 = SweepCache(tmp_path / "cache")
    got = sweep(points, _square, record="t", cache=cache2)
    assert got == expect
    assert cache2.stats.corrupted == 1
    assert cache2.stats.stores == 1  # rewrote a good entry
    # And the rewritten entry is loadable again.
    cache3 = SweepCache(tmp_path / "cache")
    assert sweep(points, _square, record="t", cache=cache3) == expect
    assert cache3.stats.hits == 1


def test_key_mismatch_entry_recomputes(tmp_path):
    """A syntactically valid entry whose key disagrees (e.g. a digest
    collision or a hand-edited file) is discarded, not trusted."""
    cache = SweepCache(tmp_path / "cache")
    points = [{"n": 4}]
    sweep(points, _square, record="t", cache=cache)
    key = point_key("t", points[0], None)
    path = cache.path_for(point_digest(key))
    path.write_text(json.dumps({"key": {"record": "other"},
                                "result": {"sq": -1}}))
    cache2 = SweepCache(tmp_path / "cache")
    got = sweep(points, _square, record="t", cache=cache2)
    assert got[0]["sq"] == 16
    assert cache2.stats.corrupted == 1


def test_none_result_cached_distinctly(tmp_path):
    """A point function legitimately returning None is a cache hit, not a
    perpetual miss."""
    cache = SweepCache(tmp_path / "cache")
    assert sweep([{}], _none_point, record="t", cache=cache) == [None]
    assert sweep([{}], _none_point, record="t", cache=cache) == [None]
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def _none_point(params):
    return None


def test_cache_disabled_by_default():
    assert sweep([{"n": 3}], _square, record="t") == \
        [{"n": 3, "sq": 9}]


def test_record_is_a_required_keyword():
    with pytest.raises(TypeError):
        sweep([{"n": 3}], _square)


# ---------------------------------------------------------------------------
# acceptance: warm-cache fig13 >= 5x faster than cold
# ---------------------------------------------------------------------------

def test_fig13_warm_cache_at_least_5x_faster(tmp_path):
    kwargs = dict(total_vms=(4,), run_ns=ms(4))

    t0 = time.perf_counter()
    cold_cache = SweepCache(tmp_path / "cache")
    cold = run_fig13b(cache=cold_cache, **kwargs)
    cold_s = time.perf_counter() - t0
    assert cold_cache.stats.misses == 3  # one point per worker count

    t0 = time.perf_counter()
    warm_cache = SweepCache(tmp_path / "cache")
    warm = run_fig13b(cache=warm_cache, **kwargs)
    warm_s = time.perf_counter() - t0
    assert warm_cache.stats.hits == 3 and warm_cache.stats.misses == 0

    assert canonical_json(cold) == canonical_json(warm)
    assert warm_s < cold_s / 5, (
        f"warm cache run took {warm_s:.3f}s vs cold {cold_s:.3f}s "
        f"(speedup {cold_s / warm_s:.1f}x, need >= 5x)")
