"""Golden-file regression checking for scenario metrics.

A *golden* is the committed JSON fingerprint of one scenario's metric
dict.  The simulator is bit-deterministic (integer nanoseconds, seeded
RNG substreams), so a golden mismatch means the datapath's behaviour
changed — either a bug or an intentional change that must regenerate the
files.

Regenerate with::

    REPRO_REGEN_GOLDENS=1 python -m pytest tests/test_golden_regression.py

Integer metrics must match exactly; float metrics allow a relative
tolerance (default 1e-9) to absorb cross-platform libm differences.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, List, Union

from ..envvars import REGEN_GOLDENS_ENV, regen_goldens_requested

__all__ = [
    "REGEN_ENV",
    "default_golden_dir",
    "golden_path",
    "save_golden",
    "load_golden",
    "compare_metrics",
    "assert_matches_golden",
    "GoldenMismatch",
    "metrics_json",
    "normalize_chrome_trace",
]

REGEN_ENV = REGEN_GOLDENS_ENV  # re-exported name used in error messages
FLOAT_RTOL = 1e-9

Metrics = Dict[str, float]


class GoldenMismatch(AssertionError):
    """A scenario's metrics diverged from its committed golden file."""


def default_golden_dir() -> Path:
    """The repository's golden directory (``tests/goldens``).

    Resolved relative to this source tree so it works from any CWD in a
    source checkout; falls back to ``./tests/goldens`` for installed
    copies driven from a repo root.
    """
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "tests" / "goldens"
        if candidate.is_dir():
            return candidate
    return Path("tests") / "goldens"


def golden_path(name: str, directory: Union[str, Path, None] = None) -> Path:
    directory = Path(directory) if directory else default_golden_dir()
    return directory / f"{name}.json"


def _canonical(metrics: Metrics) -> Dict[str, float]:
    """Sorted, JSON-clean copy (rejects NaN/inf: those are never golden)."""
    clean: Dict[str, float] = {}
    for key in sorted(metrics):
        value = metrics[key]
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"metric {key!r} is not finite: {value}")
        clean[key] = value
    return clean


def save_golden(name: str, metrics: Metrics,
                directory: Union[str, Path, None] = None) -> Path:
    path = golden_path(name, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_canonical(metrics), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_golden(name: str,
                directory: Union[str, Path, None] = None) -> Metrics:
    with open(golden_path(name, directory)) as fh:
        return json.load(fh)


def compare_metrics(expected: Metrics, actual: Metrics,
                    rtol: float = FLOAT_RTOL) -> List[str]:
    """Describe every way ``actual`` deviates from ``expected``.

    Returns human-readable difference strings (empty list = match).
    Integers compare exactly; floats within relative tolerance ``rtol``.
    """
    diffs: List[str] = []
    for key in sorted(set(expected) | set(actual)):
        if key not in actual:
            diffs.append(f"{key}: missing (golden has {expected[key]})")
            continue
        if key not in expected:
            diffs.append(f"{key}: unexpected new metric = {actual[key]}")
            continue
        want, got = expected[key], actual[key]
        if isinstance(want, float) or isinstance(got, float):
            if not math.isclose(float(want), float(got),
                                rel_tol=rtol, abs_tol=rtol):
                diffs.append(f"{key}: {got!r} != golden {want!r}")
        elif want != got:
            diffs.append(f"{key}: {got!r} != golden {want!r}")
    return diffs


def assert_matches_golden(name: str, metrics: Metrics,
                          directory: Union[str, Path, None] = None,
                          rtol: float = FLOAT_RTOL) -> None:
    """Compare against the committed golden, regenerating under REGEN_ENV.

    * With ``REPRO_REGEN_GOLDENS`` set: (re)write the file and pass.
    * Golden missing: fail with the regeneration command.
    * Mismatch: fail listing every differing metric.
    """
    if regen_goldens_requested():
        save_golden(name, metrics, directory)
        return
    path = golden_path(name, directory)
    if not path.exists():
        raise GoldenMismatch(
            f"no golden for scenario {name!r} at {path}; run with "
            f"{REGEN_ENV}=1 to create it")
    diffs = compare_metrics(load_golden(name, directory), metrics, rtol=rtol)
    if diffs:
        listing = "\n".join(f"  - {d}" for d in diffs)
        raise GoldenMismatch(
            f"scenario {name!r} diverged from {path} "
            f"({len(diffs)} metric(s)):\n{listing}\n"
            f"If the change is intentional, regenerate with {REGEN_ENV}=1.")


def metrics_json(metrics: Dict[str, Any]) -> str:
    """Canonical byte representation of a scenario's metrics."""
    return json.dumps(metrics, sort_keys=True, separators=(",", ":"))


def normalize_chrome_trace(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Rewrite raw trace ids to dense first-appearance indexes.

    Message/request ids come from process-global counters, so their
    absolute values depend on how many runs preceded this one in the
    process.  The export already maps each id to a dense ``tid``; this
    rewrites the raw copy kept in ``args`` the same way so two runs of
    the same schedule compare byte-identical.
    """
    ids: Dict[str, str] = {}
    events = []
    for record in doc.get("traceEvents", []):
        args = record.get("args", {})
        raw = args.get("trace_id")
        if raw is not None:
            args = dict(args,
                        trace_id=ids.setdefault(raw, str(len(ids) + 1)))
            record = dict(record, args=args)
        events.append(record)
    return dict(doc, traceEvents=events)
