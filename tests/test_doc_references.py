"""Every Sphinx-style cross-reference to a ``repro.*`` name in ``src/``
resolves: ``:mod:`` / ``:class:`` / ``:func:`` / ``:meth:`` / ``:data:`` /
``:attr:`` targets are imported and looked up, so a docstring cannot keep
naming a module, class or function that was renamed or deleted."""

import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE = re.compile(r":(?:mod|class|func|meth|data|attr):`~?(repro(?:\.\w+)+)`")


def _references():
    for path in sorted((SRC / "repro").rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        for match in REFERENCE.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield f"{path.relative_to(SRC)}:{line}", match.group(1)


def _resolves(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for name in parts[split:]:
            fields = getattr(target, "__dataclass_fields__", {})
            if name in fields:
                return True
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def test_references_are_found():
    assert len(list(_references())) > 100


def test_every_repro_reference_resolves():
    broken = [f"{where}: {dotted}" for where, dotted in _references() if not _resolves(dotted)]
    assert broken == []
