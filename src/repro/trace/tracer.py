"""Deterministic tracer: seeded trace ids, simulated-time spans.

The tracer is deliberately clock-free: every span start/end time is
passed in by the instrumented call site (``self.now`` on a role), so the
same code produces simulated-time spans under :class:`SimTransport` and
wall-clock spans under :class:`AsyncioTcpTransport` without the tracer
ever sampling a clock itself.  Ids are equally deterministic:

* ``trace_id`` — a SHA-256 prefix of ``"{seed}/{txid}"``, so the same
  seeded run always names its traces identically (byte-reproducible
  artifacts, stable across ``PYTHONHASHSEED``);
* ``span_id`` — ``"{node}:{seq}"`` with a per-node sequence counter;
  span creation order is deterministic under the simulator, so span ids
  are too.

The default tracer is :data:`NOOP` (``enabled=False``).  ``enabled``
guards span *creation* — ``if tracer.enabled: span = tracer.start_span(…)``
— so an untraced run allocates no attributes and no spans; it never
selects between two copies of a protocol step.  What runs beneath a span
runs in ``with under(span):`` (:mod:`repro.trace.runtime`), the only way
a role makes a span ambient, whether ``span`` is real or ``None``.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

__all__ = ["NOOP", "NoopTracer", "Span", "SpanContext", "Tracer", "derive_trace_id"]

#: (trace_id, span_id) — what rides along with every message.
SpanContext = Tuple[str, str]


def derive_trace_id(seed: object, txid: str) -> str:
    """Seeded, wall-clock-free trace id: same seed + txid -> same id."""
    digest = hashlib.sha256(f"{seed}/{txid}".encode("utf-8")).hexdigest()
    return digest[:16]


class Span:
    """One step of one transaction on one node.

    ``attrs`` hold step metadata fixed at creation (record, ballot,
    epoch); ``events`` are point-in-time attributions added while the
    span is open (collision, stale-epoch, demarcation-limit, ...).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "kind",
        "node",
        "txid",
        "start",
        "end",
        "outcome",
        "attrs",
        "events",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: str,
        parent_id: Optional[str],
        kind: str,
        node: str,
        txid: Optional[str],
        start: float,
        attrs: Dict[str, object],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.node = node
        self.txid = txid
        self.start = start
        self.end: Optional[float] = None
        self.outcome: Optional[str] = None
        self.attrs = attrs
        self.events: List[Dict[str, object]] = []

    @property
    def ctx(self) -> SpanContext:
        return (self.trace_id, self.span_id)

    def event(self, t: float, name: str, **attrs: object) -> None:
        """Record a point-in-time attribution on this span."""
        entry: Dict[str, object] = {"t_ms": round(t, 3), "name": name}
        entry.update(attrs)
        self.events.append(entry)

    def finish(self, t: float, outcome: str) -> None:
        """Close the span; the first outcome wins (finish is idempotent)."""
        if self.end is not None:
            return
        self.end = t
        self.outcome = outcome

    def as_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "kind": self.kind,
            "node": self.node,
            "txid": self.txid,
            "start_ms": round(self.start, 3),
            "end_ms": None if self.end is None else round(self.end, 3),
            "outcome": self.outcome,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
            "events": list(self.events),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Span {self.kind} {self.span_id} trace={self.trace_id}"
            f" outcome={self.outcome!r}>"
        )


class Tracer:
    """Collects spans for one run; shared by every node of the cluster."""

    enabled = True

    def __init__(self, seed: object = 0) -> None:
        self.seed = seed
        self.spans: List[Span] = []
        self._seq: Dict[str, int] = {}
        #: trace_id -> root span id, for ctx-less fallback parenting
        #: (timer callbacks, recovery agents that only know the txid).
        self._roots: Dict[str, str] = {}
        self._txids: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Ids
    # ------------------------------------------------------------------
    def trace_id_for(self, txid: str) -> str:
        return derive_trace_id(self.seed, txid)

    def _next_span_id(self, node: str) -> str:
        seq = self._seq.get(node, 0) + 1
        self._seq[node] = seq
        return f"{node}:{seq}"

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def start_trace(self, txid: str, node: str, t: float, **attrs: object) -> Span:
        """Open the root ``transaction`` span for ``txid``."""
        trace_id = self.trace_id_for(txid)
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id(node),
            parent_id=None,
            kind="transaction",
            node=node,
            txid=txid,
            start=t,
            attrs=attrs,
        )
        self._roots[trace_id] = span.span_id
        self._txids[trace_id] = txid
        self.spans.append(span)
        return span

    def start_span(
        self,
        kind: str,
        node: str,
        t: float,
        parent: Optional[SpanContext] = None,
        txid: Optional[str] = None,
        **attrs: object,
    ) -> Span:
        """Open a child span.

        ``parent`` (the ambient message context) wins when present;
        otherwise the span falls back to the trace root derived from
        ``txid`` — so timer-driven work still stitches into its
        transaction instead of orphaning.
        """
        if parent is not None:
            trace_id, parent_id = parent
        elif txid is not None:
            trace_id = self.trace_id_for(txid)
            parent_id = self._roots.get(trace_id)
        else:
            raise ValueError("start_span needs a parent context or a txid")
        if txid is None:
            txid = self._txids.get(trace_id)
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span_id(node),
            parent_id=parent_id,
            kind=kind,
            node=node,
            txid=txid,
            start=t,
            attrs=attrs,
        )
        self.spans.append(span)
        return span

    def root_ctx(self, txid: str) -> Optional[SpanContext]:
        """The root span context of ``txid``'s trace, if this tracer saw it."""
        trace_id = self.trace_id_for(txid)
        root = self._roots.get(trace_id)
        if root is None:
            return None
        return (trace_id, root)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def traces(self) -> Dict[str, List[Span]]:
        """Spans grouped by trace id, in creation order."""
        out: Dict[str, List[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def orphan_spans(self) -> List[Span]:
        """Spans whose ``parent_id`` names a span this tracer never saw."""
        ids_by_trace: Dict[str, set] = {}
        for span in self.spans:
            ids_by_trace.setdefault(span.trace_id, set()).add(span.span_id)
        return [
            span
            for span in self.spans
            if span.parent_id is not None
            and span.parent_id not in ids_by_trace[span.trace_id]
        ]


class NoopTracer:
    """The default: tracing off, every operation a no-op, zero allocation
    on instrumented hot paths (they guard on ``enabled`` first)."""

    enabled = False
    spans: List[Span] = []

    def trace_id_for(self, txid: str) -> str:  # pragma: no cover - guard-skipped
        return ""

    def start_trace(self, txid, node, t, **attrs):  # pragma: no cover
        return None

    def start_span(self, kind, node, t, parent=None, txid=None, **attrs):  # pragma: no cover
        return None

    def root_ctx(self, txid):  # pragma: no cover
        return None


#: process-wide singleton handed to roles when no tracer is installed.
NOOP = NoopTracer()
