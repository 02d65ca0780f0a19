"""Spans and the SpanRecorder: the storage layer of causal tracing.

A :class:`Span` is one timed unit of causally-related work -- a logical
method invocation, one network request/reply exchange, one server-side
dispatch, a binding resolution, an object activation.  Spans form trees
through ``parent_id``; a span with ``parent_id == 0`` is the root of one
logical operation.

Hot-path contract (the "zero-overhead no-op mode" of the tracing design):

* When tracing is off, ``services.tracer`` is ``None`` and every
  instrumented code path reduces to one attribute load plus an ``is not
  None`` test -- no span objects, no contexts, no dict writes.
* Experiments keep warm-up traffic out of the measured trace by
  dropping its spans: ``LegionSystem.reset_measurements()`` calls
  :meth:`SpanRecorder.clear` together with the counter resets.
* Span ids are allocated from a recorder-local monotone counter.  The
  simulation kernel executes events in a deterministic total order, so
  allocation order -- and with it every id, timestamp, and parent edge --
  is reproducible bit-for-bit for a given (experiment, quick, seed),
  regardless of ``--jobs``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.trace.context import TraceContext


class Span:
    """One timed, causally-linked unit of work."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "kind",
        "component",
        "start",
        "end",
        "status",
        "link",
        "annotations",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: int,
        name: str,
        kind: str,
        component: str,
        start: float,
        link: str = "",
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        #: Span taxonomy: "invoke" (client-side logical call), "request"
        #: (one wire request/reply exchange), "handle" (server dispatch),
        #: "resolve" (binding resolution), "activate" (host upcall),
        #: "event" (one-way message), "net" (network-injected incident).
        self.kind = kind
        #: ``ComponentId``-style label ("binding-agent:site0") of the
        #: object doing the work; "" for anonymous work.
        self.component = component
        self.start = start
        #: Simulated end time; None while the span is open.
        self.end: Optional[float] = None
        #: "ok", or an error class name ("timeout", "delivery-failure", ...).
        self.status = "ok"
        #: Link class of the wire hop ("same-site", ...); request spans only.
        self.link = link
        self.annotations: Optional[Dict[str, Any]] = None

    @property
    def context(self) -> TraceContext:
        """The TraceContext a child of this span should carry."""
        return TraceContext(self.trace_id, self.span_id, self.parent_id)

    def annotate(self, **kv: Any) -> None:
        """Attach key/value annotations (lazily allocated)."""
        if self.annotations is None:
            self.annotations = {}
        self.annotations.update(kv)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.span_id}<-{self.parent_id} {self.kind} {self.name!r} "
            f"[{self.start:.2f},{self.end if self.end is not None else '...'}] "
            f"{self.status}>"
        )


class SpanRecorder:
    """Collects the spans of one simulated system.

    One recorder per :class:`~repro.system.legion.LegionSystem`; installed
    as ``services.tracer``.  All span starts/finishes are stamped with the
    kernel's simulated clock.
    """

    def __init__(self, kernel) -> None:
        self.kernel = kernel
        self.spans: List[Span] = []
        self._by_id: Dict[int, Span] = {}
        self._next_id = 0
        self._next_trace = 0

    # -- recording ----------------------------------------------------------

    def start(
        self,
        name: str,
        kind: str,
        parent: Optional[TraceContext] = None,
        component: str = "",
        link: str = "",
    ) -> Span:
        """Open a span; a ``None`` parent roots a fresh trace."""
        self._next_id += 1
        if parent is None:
            self._next_trace += 1
            trace_id, parent_id = self._next_trace, 0
        else:
            trace_id, parent_id = parent.trace_id, parent.span_id
        span = Span(
            trace_id, self._next_id, parent_id, name, kind, component,
            start=self.kernel.now, link=link,
        )
        self.spans.append(span)
        self._by_id[span.span_id] = span
        return span

    def finish(self, span: Span, status: str = "") -> None:
        """Close a span at the current simulated time (idempotent)."""
        if span.end is None:
            span.end = self.kernel.now
        if status:
            span.status = status

    def instant(
        self,
        name: str,
        kind: str,
        parent: Optional[TraceContext] = None,
        component: str = "",
        link: str = "",
        **annotations: Any,
    ) -> Span:
        """A zero-duration span (cache hits, drops, gossip events)."""
        span = self.start(name, kind, parent, component, link)
        span.end = span.start
        if annotations:
            span.annotate(**annotations)
        return span

    def annotate(self, context: Optional[TraceContext], **kv: Any) -> None:
        """Attach annotations to the span ``context`` points at (no-op if
        the context is None or its span was cleared)."""
        if context is None:
            return
        span = self._by_id.get(context.span_id)
        if span is not None:
            span.annotate(**kv)

    # -- lifecycle ----------------------------------------------------------

    def clear(self) -> None:
        """Drop all recorded spans (between warm-up and measurement).

        Id counters are *not* reset: ids stay unique across the run, and
        the allocation sequence stays a pure function of execution order.
        """
        self.spans.clear()
        self._by_id.clear()

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SpanRecorder spans={len(self.spans)}>"
