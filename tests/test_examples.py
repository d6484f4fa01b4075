"""Every example script still imports against the public API.

The examples are not run by the suite (each takes seconds), so a renamed
or deleted public name would otherwise only surface when a reader runs
one.  Loading each under a ``run_name`` other than ``"__main__"``
executes its imports and definitions but not its ``main()``.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_are_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    namespace = runpy.run_path(str(path), run_name="example")
    assert callable(namespace["main"])
