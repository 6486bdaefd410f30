"""Every example imports cleanly, and the quick ones run end to end.

The examples are ``__main__``-guarded walkthroughs: importing one
resolves every ``repro`` entry point it uses, and running its ``main()``
exercises every call it makes — each asserts its own claims — so a
refactor that renames, removes or changes a surface an example depends
on fails here instead of in a reader's terminal.  The two that take tens
of seconds (``tpcw_storefront``, ``failover_drill``) run end to end in
CI's ``unit-fast`` job instead.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))

#: the examples whose ``main()`` finishes within a few seconds.
QUICK = ("bank_constraints", "follow_the_sun", "quickstart", "serializable_oncall")


def _load(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_exist():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    assert callable(_load(path).main)


@pytest.mark.parametrize("name", QUICK)
def test_example_runs(name, capsys):
    (path,) = [path for path in EXAMPLES if path.stem == name]
    _load(path).main()
    assert capsys.readouterr().out.strip()
