"""The artifact registry and the run records artifacts share.

The static test reads every ``sweep(...)`` call in ``src/repro`` without
running anything: each must name its run record with a literal
``record=`` string, and records must map one-to-one to point functions.
A record named after the point function's ``__qualname__`` would not be
safe, because a caller may wrap every point function in one closure (a
timing wrapper does), so two records would collide in one cache.

The sharing tests run a producer artifact and then its consumer into one
cache directory and read the consumer's :class:`CacheStats`.
"""

import ast
from pathlib import Path

import pytest

from repro import cli
from repro.experiments import CacheStats
from repro.experiments.registry import artifact_names, observe_aliases
from repro.testing import SCENARIOS

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _sweep_calls():
    """``(path:line, record or None, point function name or None)`` for
    every ``sweep(...)`` call under ``src/repro``."""
    calls = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if name != "sweep":
                continue
            record = next((kw.value.value for kw in node.keywords
                           if kw.arg == "record"
                           and isinstance(kw.value, ast.Constant)
                           and isinstance(kw.value.value, str)), None)
            fn = node.args[1] if len(node.args) > 1 else None
            point = fn.id if isinstance(fn, ast.Name) else None
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            calls.append((where, record, point))
    return calls


def test_every_sweep_call_names_a_literal_record_for_a_named_point():
    calls = _sweep_calls()
    assert len(calls) >= 20
    for where, record, point in calls:
        assert record, f"{where}: sweep() without a literal record="
        assert point, f"{where}: sweep()'s point function is not a name"


def test_records_map_one_to_one_to_point_functions():
    by_record, by_point = {}, {}
    for where, record, point in _sweep_calls():
        by_record.setdefault(record, set()).add(point)
        by_point.setdefault(point, set()).add(record)
    assert {r: p for r, p in by_record.items() if len(p) > 1} == {}
    assert {p: r for p, r in by_point.items() if len(r) > 1} == {}
    # The three shared records, each read by two artifacts.
    assert by_record["rr"] == {"_rr_point"}
    assert by_record["stream"] == {"_stream_point"}
    assert by_record["macro"] == {"_macro_point"}


def test_registry_ids_in_run_all_order():
    """``run all`` prints artifacts in this order; a duplicate id in the
    registry would silently drop one of them."""
    assert artifact_names() == (
        "dc_scale", "energy", "fig1", "fig10", "fig11", "fig12", "fig13",
        "fig14", "fig14ssd", "fig15", "fig16a", "fig16b", "fig3", "fig5",
        "fig7", "fig8", "fig9", "tab1", "tab2", "tab3", "tab4")


def test_observe_aliases_name_registered_scenarios():
    aliases = observe_aliases()
    assert aliases == {"fig7": "rr_vrio", "fig9": "stream_vrio",
                       "fig12": "apache_vrio", "fig13": "scalability_vrio",
                       "fig14": "filebench_vrio"}
    assert set(aliases.values()) <= set(SCENARIOS)


def _run(monkeypatch, cache_dir, argv):
    """Run ``repro run ARGV`` into ``cache_dir``; return its CacheStats."""
    caches = []
    real = cli.SweepCache

    def recording_cache(directory):
        caches.append(real(directory))
        return caches[-1]

    monkeypatch.setattr(cli, "SweepCache", recording_cache)
    assert cli.main(["run", *argv, "--cache-dir", str(cache_dir)]) == 0
    return caches[0].stats


@pytest.mark.parametrize("producer, consumer, expected", [
    (["fig12", "--quick", "--models", "vrio"],
     ["fig5", "--quick", "--models", "vrio"],
     CacheStats(hits=3, misses=0, corrupted=0, stores=0)),
    (["fig7", "--quick", "--models", "optimum,vrio"],
     ["fig8", "--quick"],
     CacheStats(hits=6, misses=0, corrupted=0, stores=0)),
    (["fig9", "--quick"],
     ["fig11", "--quick"],
     CacheStats(hits=4, misses=1, corrupted=0, stores=1)),
], ids=["fig5-reads-fig12", "fig8-reads-fig7", "fig11-reads-fig9"])
def test_artifacts_share_run_records(producer, consumer, expected,
                                     monkeypatch, tmp_path, capsys):
    _run(monkeypatch, tmp_path, producer)
    assert _run(monkeypatch, tmp_path, consumer) == expected
