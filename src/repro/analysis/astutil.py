"""Shared AST helpers for the analysis rules.

Everything here is heuristic *static* analysis: no imports of the
analyzed modules, just source trees.  The helpers over-approximate
(a name ever assigned a set anywhere in a module counts as set-typed
everywhere in it) — the suppression syntax and the baseline ratchet
absorb the rare false positive, while under-approximation would miss
exactly the latent defects the rules exist to catch.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.analysis.engine import Project, SourceFile

__all__ = [
    "dataclass_info",
    "DataclassInfo",
    "dotted_name",
    "import_aliases",
    "iter_dataclasses",
    "sent_class_names",
    "set_typed_attrs",
    "set_typed_names",
]

#: annotations that make a target set-typed.
_SET_ANNOTATION = re.compile(
    r"^(typing\.)?(Optional\[)?\s*(typing\.)?(Set|FrozenSet|set|frozenset)\b"
)

#: set methods returning sets (receiver set-typed).
_SET_RETURNING = ("union", "intersection", "difference", "symmetric_difference", "copy")

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> imported qualified name (modules and members).

    ``import time as t`` maps ``t -> time``; ``from datetime import
    datetime`` maps ``datetime -> datetime.datetime``.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                aliases[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


# ----------------------------------------------------------------------
# Set-typed inference
# ----------------------------------------------------------------------
def is_set_expr(
    node: ast.AST, names: Set[str], attrs: Set[str], *, keys_as_sets: bool = False
) -> bool:
    """Is this expression (heuristically) a set/frozenset?

    ``keys_as_sets`` treats ``.keys()`` views as sets — used only inside
    set-algebra BinOps, where views behave as sets; plain iteration over
    ``.keys()`` follows insertion order and is not flagged.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in names
    if isinstance(node, ast.Attribute):
        return node.attr in attrs
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return is_set_expr(
            node.left, names, attrs, keys_as_sets=True
        ) or is_set_expr(node.right, names, attrs, keys_as_sets=True)
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute):
            if func.attr in _SET_RETURNING:
                return is_set_expr(func.value, names, attrs)
            if keys_as_sets and func.attr == "keys":
                return True
            # dict.pop(key, set()) / dict.get(key, set()) / setdefault
            if (
                func.attr in ("pop", "get", "setdefault")
                and len(node.args) > 1
                and is_set_expr(node.args[1], names, attrs)
            ):
                return True
    return False


def _assignment_targets(node: ast.AST) -> Tuple[List[ast.expr], Optional[ast.expr], Optional[ast.expr]]:
    """(targets, value, annotation) for Assign/AnnAssign, else ([], None, None)."""
    if isinstance(node, ast.Assign):
        return node.targets, node.value, None
    if isinstance(node, ast.AnnAssign):
        return [node.target], node.value, node.annotation
    return [], None, None


def _is_set_annotation(annotation: Optional[ast.expr]) -> bool:
    return annotation is not None and bool(
        _SET_ANNOTATION.match(ast.unparse(annotation))
    )


def _module_set_constants(file: SourceFile) -> Set[str]:
    """Module-level names bound to a set, e.g. a shared empty
    ``_NO_IDS = frozenset()`` that attributes start out as."""
    names: Set[str] = set()
    for node in file.tree.body:
        targets, value, annotation = _assignment_targets(node)
        if _is_set_annotation(annotation) or (
            value is not None and is_set_expr(value, set(), set())
        ):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def set_typed_attrs(project: Project, files: Iterable[SourceFile]) -> Set[str]:
    """Attribute names assigned a set anywhere in ``files`` (cross-module:
    ``state.record.applied_ids`` in core/ is set-typed because
    storage/record.py assigns ``self.applied_ids = set()`` — or a
    module-level set constant such as a shared empty frozenset).

    Runs to a fixpoint so chained assignments (``self.a = self.b`` where
    ``b`` is set-typed) converge.
    """
    files = list(files)
    constants = {file.path: _module_set_constants(file) for file in files}
    attrs: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for file in files:
            for node in ast.walk(file.tree):
                targets, value, annotation = _assignment_targets(node)
                if not targets:
                    continue
                set_typed = _is_set_annotation(annotation) or (
                    value is not None
                    and is_set_expr(value, constants[file.path], attrs)
                )
                if not set_typed:
                    continue
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr not in attrs:
                        attrs.add(target.attr)
                        changed = True
    return attrs


def set_typed_names(file: SourceFile, attrs: Set[str]) -> Set[str]:
    """Plain names assigned a set anywhere in the module (module-wide
    pool: scoping is deliberately coarse — see module docstring)."""
    names: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(file.tree):
            targets, value, annotation = _assignment_targets(node)
            if targets:
                set_typed = _is_set_annotation(annotation) or (
                    value is not None and is_set_expr(value, names, attrs)
                )
                if set_typed:
                    for target in targets:
                        if isinstance(target, ast.Name) and target.id not in names:
                            names.add(target.id)
                            changed = True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg in [
                    *node.args.posonlyargs,
                    *node.args.args,
                    *node.args.kwonlyargs,
                ]:
                    if _is_set_annotation(arg.annotation) and arg.arg not in names:
                        names.add(arg.arg)
                        changed = True
    return names


# ----------------------------------------------------------------------
# Dataclass index
# ----------------------------------------------------------------------
class DataclassInfo:
    """Static facts about one dataclass definition."""

    __slots__ = ("name", "path", "line", "frozen", "slots")

    def __init__(self, name: str, path: str, line: int, frozen: bool, slots: bool):
        self.name = name
        self.path = path
        self.line = line
        self.frozen = frozen
        self.slots = slots


def dataclass_info(node: ast.ClassDef, path: str) -> Optional[DataclassInfo]:
    """DataclassInfo if ``node`` is decorated with @dataclass, else None."""
    for decorator in node.decorator_list:
        call = decorator if isinstance(decorator, ast.Call) else None
        target = call.func if call is not None else decorator
        name = dotted_name(target)
        if name not in ("dataclass", "dataclasses.dataclass"):
            continue
        frozen = slots = False
        if call is not None:
            for keyword in call.keywords:
                if isinstance(keyword.value, ast.Constant) and keyword.value.value is True:
                    if keyword.arg == "frozen":
                        frozen = True
                    elif keyword.arg == "slots":
                        slots = True
        if not slots:
            for item in node.body:
                targets, _value, _ann = _assignment_targets(item)
                for target in targets:
                    if isinstance(target, ast.Name) and target.id == "__slots__":
                        slots = True
        return DataclassInfo(node.name, path, node.lineno, frozen, slots)
    return None


def iter_dataclasses(files: Iterable[SourceFile]) -> Dict[str, DataclassInfo]:
    """name -> DataclassInfo for every dataclass defined in ``files``.
    (Message class names are globally unique in this codebase; the wire
    codec itself relies on that.)"""
    out: Dict[str, DataclassInfo] = {}
    for file in files:
        for node in ast.walk(file.tree):
            if isinstance(node, ast.ClassDef):
                info = dataclass_info(node, file.path)
                if info is not None:
                    out[info.name] = info
    return out


# ----------------------------------------------------------------------
# Sent-message analysis
# ----------------------------------------------------------------------
_CLASS_NAME = re.compile(r"^[A-Z]")


def _constructed_class(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and _CLASS_NAME.match(node.func.id)
    ):
        return node.func.id
    return None


def sent_class_names(project: Project) -> Set[str]:
    """Class names provably passed to a ``send``/``broadcast`` call.

    Resolution is module-local: a direct construction in the call
    (``self.send(dst, Visibility(...))``) or a plain name assigned a
    construction anywhere in the same module (``msg = Visibility(...);
    self.send(dst, msg)``).  Relays of received messages resolve at the
    original construction site in the sender's module.
    """
    sent: Set[str] = set()
    for file in project.files:
        assigned: Dict[str, str] = {}
        for node in ast.walk(file.tree):
            targets, value, _ann = _assignment_targets(node)
            if value is not None:
                cls = _constructed_class(value)
                if cls is not None:
                    for target in targets:
                        if isinstance(target, ast.Name):
                            assigned[target.id] = cls
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in ("send", "broadcast")
            ):
                continue
            for arg in node.args:
                cls = _constructed_class(arg)
                if cls is not None:
                    sent.add(cls)
                elif isinstance(arg, ast.Name) and arg.id in assigned:
                    sent.add(assigned[arg.id])
    return sent


def constructed_class_names(project: Project) -> Set[str]:
    """Every class name constructed anywhere in the project."""
    out: Set[str] = set()
    for file in project.files:
        for node in ast.walk(file.tree):
            cls = _constructed_class(node)
            if cls is not None:
                out.add(cls)
    return out
