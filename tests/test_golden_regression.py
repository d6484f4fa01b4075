"""Golden-file regression: every canonical scenario matches its committed
fingerprint, and the golden machinery itself behaves.

Regenerate after an intentional behaviour change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_golden_regression.py
"""

import hashlib
import json

import pytest

from repro.telemetry import TelemetrySession
from repro.testing import (
    GoldenMismatch,
    REGEN_ENV,
    assert_matches_golden,
    assert_no_violations,
    compare_metrics,
    default_golden_dir,
    golden_path,
    load_golden,
    metrics_json,
    normalize_chrome_trace,
    run_scenario,
    save_golden,
    scenario_names,
    verify_testbed,
)
from tests.conftest import GOLDEN_DIR


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_matches_golden(name, scenario_run, golden_dir):
    result = scenario_run(name)
    assert_no_violations(verify_testbed(result.testbed))
    assert_matches_golden(name, result.metrics, golden_dir)


def test_every_golden_has_a_scenario(golden_dir):
    """No stale fingerprints for scenarios that no longer exist."""
    on_disk = {p.stem for p in golden_dir.glob("*.json")}
    assert on_disk == set(scenario_names())


# SHA-256 of apache_vrio's telemetry exports at seed 0: the metrics
# snapshot and the Chrome trace with trace ids made dense.  The metric
# goldens above do not cover these bytes.  Recompute with the same
# serialization after an intentional telemetry or datapath change.
APACHE_VRIO_EXPORT_SHA256 = {
    "metrics": "e8f6dfbc20c3ecee6a8b5211acd8fe668054a1f55be3fb15c13bc813500e73f1",
    "telemetry_metrics":
        "ddf4c66f71b1c7f6e9483b0b6957b32dc7edc434ba67e3fa11e8ba39b5823db6",
    "chrome_trace":
        "f529860545bd053142da9f46399205bbfb7d5ef7f8f358ecdc22878a75c35108",
}


def test_telemetry_exports_pinned():
    with TelemetrySession() as session:
        result = run_scenario("apache_vrio", seed=0)
    bound = session.for_testbed(result.testbed)
    exports = {
        "metrics": metrics_json(result.metrics),
        "telemetry_metrics": json.dumps(
            bound.snapshot(), sort_keys=True, default=str),
        "chrome_trace": json.dumps(
            normalize_chrome_trace(bound.chrome_trace()),
            sort_keys=True, default=str),
    }
    digests = {kind: hashlib.sha256(text.encode()).hexdigest()
               for kind, text in exports.items()}
    assert digests == APACHE_VRIO_EXPORT_SHA256


def test_default_golden_dir_finds_repo_goldens():
    assert default_golden_dir() == GOLDEN_DIR


# -- the comparison machinery itself ----------------------------------------

def test_compare_metrics_exact_ints():
    diffs = compare_metrics({"a": 3, "b": 4}, {"a": 3, "b": 5})
    assert len(diffs) == 1 and diffs[0].startswith("b:")


def test_compare_metrics_float_tolerance():
    assert not compare_metrics({"x": 1.0}, {"x": 1.0 + 1e-12})
    assert compare_metrics({"x": 1.0}, {"x": 1.0 + 1e-6})


def test_compare_metrics_missing_and_new_keys():
    diffs = compare_metrics({"old": 1}, {"new": 2})
    assert len(diffs) == 2
    assert any("missing" in d for d in diffs)
    assert any("unexpected" in d for d in diffs)


def test_save_and_load_roundtrip(tmp_path):
    metrics = {"ints": 42, "floats": 3.14159, "zero": 0}
    save_golden("roundtrip", metrics, tmp_path)
    assert load_golden("roundtrip", tmp_path) == metrics


def test_missing_golden_fails_with_instructions(tmp_path):
    with pytest.raises(GoldenMismatch, match=REGEN_ENV):
        assert_matches_golden("never_saved", {"a": 1}, tmp_path)


def test_mismatch_lists_every_divergent_metric(tmp_path):
    save_golden("diverge", {"a": 1, "b": 2.0}, tmp_path)
    with pytest.raises(GoldenMismatch) as exc:
        assert_matches_golden("diverge", {"a": 1, "b": 2.5}, tmp_path)
    assert "b:" in str(exc.value)
    assert "a:" not in str(exc.value)


def test_regen_env_rewrites_instead_of_failing(tmp_path, monkeypatch):
    save_golden("regen", {"a": 1}, tmp_path)
    monkeypatch.setenv(REGEN_ENV, "1")
    assert_matches_golden("regen", {"a": 99}, tmp_path)
    assert load_golden("regen", tmp_path) == {"a": 99}


def test_non_finite_metrics_are_rejected(tmp_path):
    with pytest.raises(ValueError, match="not finite"):
        save_golden("nan", {"bad": float("nan")}, tmp_path)


def test_golden_path_naming(tmp_path):
    assert golden_path("rr_vrio", tmp_path).name == "rr_vrio.json"
