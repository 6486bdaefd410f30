"""Ambient tracing runtime: installation, context propagation, wiring.

One tracer (plus one metrics registry) is installed for the lifetime of
a traced run — covering cluster construction, the workload, chaos
recovery agents and post-run anti-entropy sweeps.  Roles pick the
tracer up at construction via :func:`current_tracer`; when nothing is
installed they get the shared :data:`~repro.trace.tracer.NOOP` singleton.

The rule for an instrumented site: ``tracer.enabled`` guards span
*creation* and nothing else — an untraced run builds no attributes and
no spans, and runs the very statements a traced run does.  ``with
under(span):`` is the only way a role makes a span ambient (so the
messages sent inside stitch beneath it), and it takes the ``None`` an
untraced site holds.  :func:`set_context` / :func:`reset_context` are
for the transports' delivery wrappers, which restore a context that
arrived with a message; ``tests/test_trace.py`` keeps both rules.

Context propagation is transport-specific but role-agnostic:

* **Simulator** — :func:`instrument_sim_transport` replaces
  ``network.send`` / ``network._deliver`` with instance-attribute
  wrappers (installed only while a tracer is active, so the PR-5 hot
  path is untouched when tracing is off).  The send wrapper snapshots
  the ambient :data:`CURRENT` span context into a side table keyed by
  ``id(message)`` (holding a strong reference so the id cannot be
  reused while in flight); the deliver wrapper restores that context
  around ``on_message``.  Broadcasts refcount the entry — one send, one
  delivery, one decrement.  Messages the network drops leak their entry
  for the run's duration; that costs memory only, never trajectory.
  The wrappers draw no randomness and post no events, so the simulated
  trajectory is byte-identical with tracing on or off.

* **TCP** — :class:`~repro.transport.tcp.AsyncioTcpTransport` reads
  :data:`CURRENT` itself and carries ``(trace_id, span_id)`` in the
  frame envelope's ``trace`` key (and through the same-process
  ``call_soon`` fast path), restoring it around dispatch on the
  receiving side.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import ContextManager, Iterator, Optional, Tuple

from repro.trace.registry import MetricsRegistry, scoped
from repro.trace.tracer import NOOP, Tracer

__all__ = [
    "current_context",
    "current_registry",
    "current_tracer",
    "install",
    "instrument_sim_transport",
    "record_latency",
    "reset_context",
    "scoped_counters",
    "set_context",
    "under",
    "uninstall",
]

_TRACER: Optional[Tracer] = None
_REGISTRY: Optional[MetricsRegistry] = None

#: the ambient span context ``(trace_id, span_id)`` of the code that is
#: currently executing — set by deliver wrappers around ``on_message``
#: and by instrumented roles around outbound sends.  Single-threaded in
#: both backends (sim event loop / asyncio loop), so a module global is
#: exactly a context variable without the lookup cost.
CURRENT: Optional[Tuple[str, str]] = None


def install(tracer: Tracer, registry: Optional[MetricsRegistry] = None) -> None:
    """Make ``tracer`` ambient for everything constructed from now on."""
    global _TRACER, _REGISTRY, CURRENT
    _TRACER = tracer
    _REGISTRY = registry
    CURRENT = None


def uninstall() -> None:
    global _TRACER, _REGISTRY, CURRENT
    _TRACER = None
    _REGISTRY = None
    CURRENT = None


def current_tracer():
    """The installed tracer, or the no-op singleton."""
    return _TRACER if _TRACER is not None else NOOP


def current_registry() -> Optional[MetricsRegistry]:
    return _REGISTRY


def current_context() -> Optional[Tuple[str, str]]:
    return CURRENT


def set_context(ctx: Optional[Tuple[str, str]]) -> Optional[Tuple[str, str]]:
    """Swap the ambient context; returns the previous one for restore."""
    global CURRENT
    previous = CURRENT
    CURRENT = ctx
    return previous


def reset_context(previous: Optional[Tuple[str, str]]) -> None:
    global CURRENT
    CURRENT = previous


@contextmanager
def _ambient(ctx: Tuple[str, str]) -> Iterator[None]:
    previous = set_context(ctx)
    try:
        yield
    finally:
        reset_context(previous)


_UNTRACED = nullcontext()


def under(span) -> ContextManager[None]:
    """The scope in which ``span`` is the ambient context; entering it
    with ``None`` (tracing off, or no anchor for a span) changes nothing."""
    return _UNTRACED if span is None else _ambient(span.ctx)


def scoped_counters(node_id: str, counters):
    """Per-node attribution for ``counters`` when a registry is active.

    Returns ``counters`` unchanged when tracing is off — construction
    sites call this unconditionally and pay one ``None`` check.
    """
    return scoped(node_id, counters, _REGISTRY)


def record_latency(node_id: str, value_ms: float, timestamp: float) -> None:
    """Attribute one latency sample to ``node_id`` (traced runs only)."""
    if _REGISTRY is not None:
        _REGISTRY.latency_for(node_id).add(value_ms, timestamp=timestamp)


def instrument_sim_transport(transport) -> None:
    """Wrap a :class:`SimTransport`'s network for context propagation.

    No-op unless a tracer is installed, so untraced runs keep the
    original unwrapped hot path.  Idempotent per network instance.
    """
    if _TRACER is None:
        return
    network = getattr(transport, "network", None)
    if network is None or getattr(network, "_trace_wrapped", False):
        return
    #: id(message) -> [message, ctx, in_flight_count]; the strong message
    #: reference pins the id until every delivery consumed its context.
    pending: dict = {}
    original_send = network.send
    original_deliver = network._deliver

    def traced_send(src_id: str, dst_id: str, message: object) -> None:
        ctx = CURRENT
        if ctx is not None:
            key = id(message)
            entry = pending.get(key)
            if entry is None:
                pending[key] = [message, ctx, 1]
            else:
                entry[1] = ctx
                entry[2] += 1
        original_send(src_id, dst_id, message)

    def traced_deliver(dst_id: str, message: object, src_id: str) -> None:
        entry = pending.get(id(message))
        if entry is None:
            ctx = None
        else:
            ctx = entry[1]
            entry[2] -= 1
            if entry[2] <= 0:
                del pending[id(message)]
        previous = set_context(ctx)
        try:
            original_deliver(dst_id, message, src_id)
        finally:
            reset_context(previous)

    network.send = traced_send
    network._deliver = traced_deliver
    network._trace_wrapped = True
    # SimTransport aliases network.send at construction for speed; point
    # the alias at the wrapper so role sends are captured too.
    transport.send = traced_send
