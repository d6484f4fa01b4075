"""Shared fixtures for the test suite.

The verification-harness tests (goldens, determinism, invariants) all
consume the same canonical scenario runs; ``scenario_run`` caches one run
per (name, seed) for the whole session so the suite replays each scenario
once instead of once per consumer.

Every test runs with ``REPRO_CACHE_DIR`` pointing at one session-private
directory, so the sweep and lint caches never land in the checkout's
``.repro_cache/``.  A test of the default location unsets it itself.

Hypothesis runs under one profile: derandomized, so every run draws the
same examples, with no example database.  Its other storage (a cache of
constants mined from the source) goes to the same private directory, so
nothing lands in the checkout's ``.hypothesis/``.  Each test keeps its
own ``max_examples``.
"""

from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

import pytest
from hypothesis import settings

from repro.cluster import TestbedSpec
from repro.envvars import CACHE_DIR_ENV
from repro.testing import ScenarioResult, run_scenario

# The name starts with "Test", but it's a dataclass, not a test class.
TestbedSpec.__test__ = False

settings.register_profile("repro", derandomize=True, database=None)
settings.load_profile("repro")

GOLDEN_DIR = Path(__file__).parent / "goldens"


@pytest.fixture(scope="session", autouse=True)
def private_cache_dir(tmp_path_factory) -> Iterator[Path]:
    """One session-wide ``REPRO_CACHE_DIR`` (and hypothesis storage)
    outside the checkout."""
    cache_dir = tmp_path_factory.mktemp("repro_cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_DIR_ENV, str(cache_dir))
        patch.setenv("HYPOTHESIS_STORAGE_DIRECTORY",
                     str(cache_dir / "hypothesis"))
        yield cache_dir


@pytest.fixture(scope="session")
def golden_dir() -> Path:
    return GOLDEN_DIR


@pytest.fixture(scope="session")
def scenario_run() -> Callable[..., ScenarioResult]:
    """Session-cached scenario runner: ``scenario_run(name, seed=0)``."""
    cache: Dict[Tuple[str, int], ScenarioResult] = {}

    def run(name: str, seed: int = 0) -> ScenarioResult:
        key = (name, seed)
        if key not in cache:
            cache[key] = run_scenario(name, seed=seed)
        return cache[key]

    return run
