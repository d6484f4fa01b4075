"""Differential proof that every way of driving the scheduler agrees.

There is one scheduler — a ready deque plus a heap of timers — but
``run()``, ``run(until)`` resumed one timestamp at a time, and
``step()`` each dispatch from it with their own code (see
``tests/drive_modes.py``).  Every scenario in the registry — the paper
scenarios plus the fault-injection goldens — is replayed along each
path, and everything an artifact consumer can observe must be
byte-identical: the canonical metrics JSON, the committed golden
fingerprints, and (for a representative scenario) the telemetry
metrics snapshot, Chrome-trace export and windowed timeline.
"""

import json
from typing import Dict, Tuple

import pytest

from repro.telemetry import DEFAULT_WINDOW_NS, TelemetrySession
from repro.testing import (
    assert_matches_golden,
    golden_path,
    metrics_json,
    normalize_chrome_trace,
    run_scenario,
    scenario_names,
)
from tests.drive_modes import DRIVE_MODES, drive_mode

_runs: Dict[Tuple[str, str], Dict] = {}


def _metrics_under(mode: str, name: str) -> Dict:
    key = (mode, name)
    if key not in _runs:
        with drive_mode(mode):
            _runs[key] = run_scenario(name).metrics
    return _runs[key]


@pytest.mark.parametrize("name", scenario_names())
def test_scenario_identical_under_all_schedulers(name, scenario_run):
    # The session-cached run is the plain run() side; replay along every
    # other drive mode and demand byte-identical metrics.
    expected = metrics_json(scenario_run(name).metrics)
    for mode in DRIVE_MODES:
        assert metrics_json(_metrics_under(mode, name)) == expected, mode


@pytest.mark.parametrize("name", scenario_names())
def test_goldens_hold_under_heap_scheduler(name):
    # The golden-regression suite pins the plain run() side; this pins
    # the sliced and stepped replays to the same goldens.
    if not golden_path(name).exists():
        pytest.skip(f"no golden committed for {name}")
    for mode in DRIVE_MODES:
        assert_matches_golden(name, _metrics_under(mode, name))


def _exports(mode=None):
    def run():
        with TelemetrySession(
                timeline_width_ns=DEFAULT_WINDOW_NS) as session:
            result = run_scenario("apache_vrio", seed=0)
        return result, session

    if mode is None:
        result, session = run()
    else:
        with drive_mode(mode):
            result, session = run()
    bound = session.for_testbed(result.testbed)
    return {
        "metrics": metrics_json(result.metrics),
        "telemetry_metrics": json.dumps(
            bound.snapshot(), sort_keys=True, default=str),
        "chrome_trace": json.dumps(
            normalize_chrome_trace(bound.chrome_trace()),
            sort_keys=True, default=str),
        "timeline": json.dumps(
            bound.timeline.to_payload(), sort_keys=True, default=str),
    }


def test_telemetry_exports_identical():
    expected = _exports()
    assert json.loads(expected["timeline"])["windows"]
    for mode in DRIVE_MODES:
        actual = _exports(mode)
        for kind, text in expected.items():
            assert actual[kind] == text, (mode, kind)
