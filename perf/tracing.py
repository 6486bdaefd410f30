"""Outside-in tracing: wrap a program's public callables, keep a span stack.

The benchmark measures layers from outside — by timing calls into their
functions, not by editing them.  :class:`Tracer` replaces named
attributes (``"package.module:Class.method"`` or ``"package.module:func"``)
with wrappers that open a span on entry and close it on return:

* span = name, start, end, parent (and an optional tag, e.g. a txid);
* per-name accumulators (self time, total time, calls, result units) are
  kept in memory for the whole run; *full* spans are kept only until
  ``keep_transactions`` transactions have completed;
* self time = duration − time covered by child spans, so the self times of
  everything under one root span sum to the root's duration exactly.

Nothing here knows the traced program: what to wrap and how to name it is
data (:class:`Target`) supplied by the caller, and the same machinery is
unit-tested on synthetic classes (``perf/test_tracing.py``).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

__all__ = ["Target", "Tracer"]

#: a span name is fixed, or derived from the call's positional arguments
#: (e.g. "which class received which message").
Namer = Union[str, Callable[[tuple], str]]


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``kind`` selects the wrapper:

    * ``"call"`` — a span around every call.  A call made while a span of
      the *same name* is already innermost passes straight through, so a
      recursive function (a tree encoder) costs one span, not one per node.
    * ``"timer"`` — the attribute *registers* a callback (``schedule(delay,
      callback, *args)``); the callback is what gets the span, named by
      ``name`` applied to ``(callback,)``.
    * ``"mark"`` — a ``"call"`` span that also counts one finished
      transaction (:meth:`Tracer.transaction_done`).
    """

    path: str
    name: Namer
    kind: str = "call"
    #: add ``len(result)`` to the name's ``units`` accumulator (bytes out
    #: of an encoder).
    sized: bool = False
    #: tag for full spans, computed from the positional arguments only
    #: while full spans are being kept.
    tag: Optional[Callable[[tuple], Optional[str]]] = None
    #: remember every distinct receiver (``args[0]``) in
    #: ``Tracer.receivers[path]`` — how a caller reaches objects that an
    #: entry point builds but does not return.
    capture: bool = False


class Tracer:
    """Span stack + accumulators; :meth:`install` / :meth:`uninstall`."""

    def __init__(self, keep_transactions: int = 20) -> None:
        #: innermost-last frames: [name, child_ns, start_ns, span_id]
        self._stack: List[list] = []
        #: name -> [self_ns, total_ns, calls, units]
        self.totals: Dict[str, List[int]] = {}
        #: (span_id, parent_id, name, start_ns, end_ns, tag); parent 0 = root
        self.spans: List[Tuple[int, int, str, int, int, Optional[str]]] = []
        self._keep = keep_transactions > 0
        self._keep_transactions = keep_transactions
        self.transactions = 0
        self._next_id = 0
        #: wrappers pass straight through while False, so a caller can
        #: confine the ledger to its timed regions.
        self.active = True
        #: target path -> {id(receiver): receiver} for ``capture`` targets
        self.receivers: Dict[str, Dict[int, Any]] = {}
        #: (owner, attribute, original raw attribute) for uninstall
        self._patched: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Install / uninstall
    # ------------------------------------------------------------------
    def install(self, targets: List[Target]) -> None:
        """Wrap every target; raises if a path does not resolve."""
        for target in targets:
            owner, attribute = resolve_owner(target.path)
            raw = inspect.getattr_static(owner, attribute)
            function = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if not callable(function):
                raise TypeError(f"{target.path} is not callable")
            if target.kind == "timer":
                wrapper = self._wrap_timer(function, target)
            elif target.kind in ("call", "mark"):
                wrapper = functools.wraps(function)(self._wrap_call(function, target))
            else:
                raise ValueError(f"unknown target kind {target.kind!r}")
            if isinstance(raw, staticmethod):
                wrapper = staticmethod(wrapper)
            elif isinstance(raw, classmethod):
                wrapper = classmethod(wrapper)
            self._patched.append((owner, attribute, raw))
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every original attribute back (reverse order)."""
        while self._patched:
            owner, attribute, raw = self._patched.pop()
            setattr(owner, attribute, raw)

    # ------------------------------------------------------------------
    # Spans opened by the caller itself
    # ------------------------------------------------------------------
    def call(self, name: str, function: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``function`` under a span called ``name`` (a root, usually)."""
        return self._wrap_call(function, Target("", name))(*args, **kwargs)

    def transaction_done(self) -> None:
        """One more transaction finished; full spans stop after the quota."""
        self.transactions += 1
        if self.transactions >= self._keep_transactions:
            self._keep = False

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, int]]:
        """Per-name accumulators, sorted by name."""
        return {
            name: {"self_ns": t[0], "total_ns": t[1], "calls": t[2], "units": t[3]}
            for name, t in sorted(self.totals.items())
        }

    def span_rows(self) -> List[Dict[str, object]]:
        return [
            {"id": i, "parent": p, "name": n, "start_ns": s, "end_ns": e, "tag": t}
            for i, p, n, s, e, t in self.spans
        ]

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap_call(self, function: Callable, target: Target) -> Callable:
        tracer = self
        stack = self._stack
        totals = self.totals
        clock = time.perf_counter_ns
        fixed = target.name if isinstance(target.name, str) else None
        namer = None if fixed is not None else target.name
        sized = target.sized
        mark = target.kind == "mark"
        tag_of = target.tag
        seen = self.receivers.setdefault(target.path, {}) if target.capture else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return function(*args, **kwargs)
            if seen is not None:
                seen[id(args[0])] = args[0]
            name = fixed if fixed is not None else namer(args)
            if stack and stack[-1][0] == name:
                return function(*args, **kwargs)
            span_id = 0
            if tracer._keep:
                tracer._next_id += 1
                span_id = tracer._next_id
            frame = [name, 0, 0, span_id]
            stack.append(frame)
            result = None
            frame[2] = clock()
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                try:
                    total = totals[name]
                except KeyError:
                    total = totals[name] = [0, 0, 0, 0]
                total[0] += duration - frame[1]
                total[1] += duration
                total[2] += 1
                if sized and result is not None:
                    total[3] += len(result)
                if stack:
                    stack[-1][1] += duration
                if span_id:
                    tracer.spans.append(
                        (
                            span_id,
                            stack[-1][3] if stack else 0,
                            name,
                            frame[2],
                            end,
                            tag_of(args) if tag_of is not None else None,
                        )
                    )
                if mark:
                    tracer.transaction_done()

        return traced

    def _wrap_timer(self, function: Callable, target: Target) -> Callable:
        if isinstance(target.name, str):
            raise TypeError("a timer target names spans from the callback")
        namer = target.name
        tracer = self
        wrap_call = self._wrap_call

        @functools.wraps(function)
        def register(self_, delay: float, callback: Callable, *args: Any) -> Any:
            if not tracer.active:
                return function(self_, delay, callback, *args)
            traced = wrap_call(callback, Target("", namer((callback,))))
            return function(self_, delay, traced, *args)

        return register


def resolve_owner(path: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` → (Class, "attr"); ``"pkg.mod:func"`` →
    (module, "func").  Raises ImportError/AttributeError when stale."""
    module_name, _, qualname = path.partition(":")
    if not qualname:
        raise ValueError(f"target path {path!r} needs 'module:attribute'")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    getattr(owner, parts[-1])  # raises AttributeError on a stale path
    return owner, parts[-1]
