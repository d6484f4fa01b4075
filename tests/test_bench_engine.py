"""The engine benchmark: schema, regression gate, CLI wiring.

Timing-sensitive assertions are avoided: the regression gate is
exercised with fabricated payloads, and the one real subprocess run
only checks exit status and schema, never absolute rates.
"""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench_engine import (
    DEFAULT_OUT,
    SCHEMA,
    check_regression,
    validate_payload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _payload(b32=4_000_000.0, fabric=30_000.0):
    """A minimal, schema-valid fabricated payload."""
    def row(name, mode, rate, batch=None):
        return {
            "name": name, "mode": mode, "path": "fig12", "lanes": 64,
            "events": 2_000_000, "background": 1_000_000, "batch": batch,
            "events_per_sec": rate,
        }

    rows = [row("completion_storm_b32", "poll-batch-storm", b32, 32),
            row("fabric_storm_r4", "fabric-storm", fabric)]
    lint = {"name": "lint_tree", "files": 116, "findings": 0,
            "cold_wall_s": 0.5, "warm_wall_s": 0.06,
            "warmup_x": round(0.5 / 0.06, 2)}
    return {
        "schema": SCHEMA,
        "quick": False,
        "python": "3.11.7",
        "rows": rows,
        "artifacts": [{
            "scenario": "fig12:apache/vrio", "path": "fig12",
            "kind": "figure-point", "wall_s": 0.6,
        }],
        "lint": lint,
    }


# -- regression gate (fabricated, no timing) ---------------------------------


def test_gate_passes_on_equal_rates():
    assert check_regression(_payload(), _payload()) == []


def test_gate_passes_on_improvement_and_small_dip():
    baseline = _payload(b32=4_000_000.0)
    assert check_regression(_payload(b32=5_000_000.0), baseline) == []
    # A 5% dip is inside the 10% tolerance.
    assert check_regression(_payload(b32=3_800_000.0), baseline) == []


def test_gate_fails_on_regression_beyond_tolerance():
    baseline = _payload(b32=4_000_000.0)
    problems = check_regression(_payload(b32=3_500_000.0), baseline)
    assert len(problems) == 1
    assert "completion_storm_b32" in problems[0]
    # The other row did not regress and is not reported.
    assert "fabric_storm_r4" not in problems[0]


def test_gate_reports_rows_missing_from_current():
    baseline = _payload()
    current = _payload()
    current["rows"] = [r for r in current["rows"]
                      if r["name"] != "fabric_storm_r4"]
    problems = check_regression(current, baseline)
    assert any("fabric_storm_r4" in p and "not measured" in p
               for p in problems)


def test_gate_skips_rows_at_different_scale():
    baseline = _payload(b32=4_000_000.0)
    current = _payload(b32=1_000_000.0)  # would regress hard ...
    for row in current["rows"]:
        row["events"] = 200_000  # ... but at quick scale: not comparable
    assert check_regression(current, baseline) == []


def test_gate_fails_on_new_lint_findings():
    baseline = _payload()
    current = _payload()
    current["lint"]["findings"] = 2
    problems = check_regression(current, baseline)
    assert any("lint_tree" in p and "finding" in p for p in problems)


def test_gate_fails_on_lost_cache_warmup():
    baseline = _payload()
    current = _payload()
    current["lint"].update(warm_wall_s=0.4, warmup_x=1.25)
    problems = check_regression(current, baseline)
    assert any("lint_tree" in p and "warm cache" in p for p in problems)


def test_gate_reports_lint_missing_from_current():
    baseline = _payload()
    current = _payload()
    del current["lint"]
    problems = check_regression(current, baseline)
    assert any("lint_tree" in p and "not measured" in p for p in problems)


def test_gate_tolerance_is_configurable():
    baseline = _payload(b32=4_000_000.0)
    current = _payload(b32=3_800_000.0)
    assert check_regression(current, baseline, tolerance=0.01) != []


# -- schema validation -------------------------------------------------------


def test_validate_accepts_fabricated_payload():
    assert validate_payload(_payload()) == []


@pytest.mark.parametrize("mutate,needle", [
    (lambda p: p.update(schema="bogus/v9"), "schema"),
    (lambda p: p.update(rows=[]), "rows"),
    (lambda p: p["rows"][0].pop("events_per_sec"), "events_per_sec"),
    (lambda p: p["rows"][0].update(events_per_sec=0), "events_per_sec"),
    (lambda p: p.update(artifacts=[]), "artifacts"),
    (lambda p: p["lint"].pop("warmup_x"), "warmup_x"),
    (lambda p: p["lint"].update(files=0), "no files"),
])
def test_validate_flags_broken_payloads(mutate, needle):
    payload = copy.deepcopy(_payload())
    mutate(payload)
    problems = validate_payload(payload)
    assert any(needle in p for p in problems), problems


def test_committed_baseline_is_valid_and_meets_target():
    path = REPO_ROOT / DEFAULT_OUT
    assert path.exists(), f"{DEFAULT_OUT} must be committed"
    payload = json.loads(path.read_text())
    assert validate_payload(payload) == []
    assert payload["quick"] is False
    # The committed lint row: clean tree, cache pulling its weight.
    from repro.bench_engine import LINT_WARMUP_TARGET
    assert payload["lint"]["findings"] == 0
    assert payload["lint"]["warmup_x"] >= LINT_WARMUP_TARGET


# -- CLI wiring --------------------------------------------------------------


def test_bench_check_without_engine_is_a_usage_error():
    from repro.cli import main
    assert main(["bench", "--check"]) == 2


def test_bench_engine_rejects_artifact_arguments():
    from repro.cli import main
    assert main(["bench", "fig12", "--engine"]) == 2


def test_check_mode_fails_against_inflated_baseline(tmp_path, monkeypatch):
    # The gate path end-to-end, without running the bench: feed
    # check_regression via main() against an impossible baseline.
    from repro import bench_engine

    inflated = _payload(b32=4e12, fabric=4e12)
    baseline_file = tmp_path / "BENCH_engine.json"
    baseline_file.write_text(json.dumps(inflated))
    monkeypatch.setattr(bench_engine, "run_engine_bench",
                        lambda quick=False, progress=None: _payload())
    assert bench_engine.main(["--check", "--out", str(baseline_file)]) == 1
    # And a sane baseline passes; the file is left untouched in --check.
    baseline_file.write_text(json.dumps(_payload()))
    before = baseline_file.read_text()
    assert bench_engine.main(["--check", "--out", str(baseline_file)]) == 0
    assert baseline_file.read_text() == before


def test_quick_bench_subprocess_smoke(tmp_path):
    out = tmp_path / "bench.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "bench", "--engine", "--quick",
         "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert validate_payload(payload) == []
    assert payload["quick"] is True
    names = {r["name"] for r in payload["rows"]}
    assert names == {"completion_storm_b32", "timeline_storm_b32",
                     "fabric_storm_r4"}
    assert payload["lint"]["files"] > 0
