"""Every example imports cleanly against the current public surface.

The examples are ``__main__``-guarded walkthroughs: importing one
resolves every ``repro`` entry point it uses without running a
simulation, so a refactor that renames or removes a surface an example
depends on fails here instead of in a reader's terminal.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
