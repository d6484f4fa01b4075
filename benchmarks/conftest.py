"""Shared benchmark plumbing.

Each benchmark regenerates one paper artifact (table or figure), prints the
reproduced rows/series, and lets pytest-benchmark time the regeneration.
Runs use reduced-but-representative sweep points so the full suite
completes in minutes; the experiment runners accept larger parameters for
full-fidelity sweeps.
"""

import pytest

from repro.cluster import TestbedSpec

# The name starts with "Test", but it's a dataclass, not a test class.
TestbedSpec.__test__ = False


@pytest.fixture
def show(capsys):
    """Print a reproduced artifact even under pytest's capture."""

    def _show(text: str) -> None:
        with capsys.disabled():
            print("\n" + text)

    return _show


def run_once(benchmark, fn, *args, **kwargs):
    """Time ``fn`` with a single round (experiments are deterministic)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)
