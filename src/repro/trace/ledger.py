"""LoadLedger: per-component load, hop depths, and fan-in, from spans.

The paper argues scalability by mechanism shape: bounded hop counts on
the binding path (4.1.2), combining-tree fan-in no wider than the tree's
arity (5.2.2), and per-component request load that must not grow with
host count (5.2).  The ledger derives each of those quantities from a
span set, so every claim the aggregate counters check can also be checked
per operation and per hop.

Definitions:

* **requests handled** by a component = its "handle" spans (one per
  REQUEST dispatched to it);
* **hop depth** of a logical operation = the maximum number of "request"
  spans on any root-to-leaf path of its span tree (each request span is
  one wire request/reply exchange);
* **fan-in** of a component = the number of distinct components whose
  request spans parent its handle spans.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.trace.recorder import Span


class LoadLedger:
    """Aggregates one span set into the paper's three load shapes."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans: List[Span] = list(spans)
        self._by_id: Dict[int, Span] = {s.span_id: s for s in self.spans}
        self._children: Dict[int, List[Span]] = {}
        for span in self.spans:
            self._children.setdefault(span.parent_id, []).append(span)
        #: component → number of requests it handled.
        self.handled: Dict[str, int] = {}
        #: component → requests its admission control shed (repro.flow).
        self.sheds: Dict[str, int] = {}
        #: component → distinct sender components (fan-in sets).
        self.sources: Dict[str, Set[str]] = {}
        for span in self.spans:
            if span.kind == "shed":
                self.sheds[span.component] = self.sheds.get(span.component, 0) + 1
                continue
            if span.kind != "handle":
                continue
            self.handled[span.component] = self.handled.get(span.component, 0) + 1
            parent = self._by_id.get(span.parent_id)
            if parent is not None and parent.kind == "request":
                self.sources.setdefault(span.component, set()).add(parent.component)

    # -- load -----------------------------------------------------------------

    def loads(self, prefix: str = "") -> Dict[str, int]:
        """component → handled count, optionally filtered by label prefix.

        Component labels follow ``ComponentId``'s "kind:name" format, so
        ``prefix="binding-agent:"`` selects one infrastructure kind.
        """
        return {
            comp: n
            for comp, n in self.handled.items()
            if comp.startswith(prefix)
        }

    def max_load(self, prefix: str = "") -> Tuple[str, int]:
        """The most-loaded component (and its count) under ``prefix``.

        Returns ``("", 0)`` when no component matches -- the same "absent
        means unloaded" convention as ``MetricsRegistry.max_by_kind``.
        """
        loads = self.loads(prefix)
        if not loads:
            return ("", 0)
        comp = max(loads, key=lambda c: (loads[c], c))
        return (comp, loads[comp])

    def shed_counts(self, prefix: str = "") -> Dict[str, int]:
        """component → requests shed by admission control ("shed" spans).

        One instant span is recorded per shed request, so these counts
        reconcile exactly with the ``MetricsRegistry`` "shed" counters
        and the FaultLog's "request-shed" observations.
        """
        return {
            comp: n for comp, n in self.sheds.items() if comp.startswith(prefix)
        }

    def peak_concurrency(self, prefix: str = "") -> Dict[str, int]:
        """component → max simultaneously-open "handle" spans.

        The trace's view of admitted concurrency: under admission control
        (repro.flow) this must never exceed the configured capacity.  The
        boundary sweep orders ends before starts at equal times, so
        back-to-back dispatches at one simulated instant do not read as
        overlap; zero-duration handles (synchronous methods) count 1 at
        their instant.
        """
        events: Dict[str, List[Tuple[float, int]]] = {}
        instantaneous: Set[str] = set()
        for span in self.spans:
            if span.kind != "handle" or not span.component.startswith(prefix):
                continue
            end = span.end if span.end is not None else span.start
            if end <= span.start:
                instantaneous.add(span.component)
                continue
            bounds = events.setdefault(span.component, [])
            bounds.append((span.start, 1))
            bounds.append((end, -1))
        peaks: Dict[str, int] = {comp: 1 for comp in instantaneous}
        for comp, bounds in events.items():
            bounds.sort()  # (-1) sorts before (+1) at equal times
            live = peak = 0
            for _time, delta in bounds:
                live += delta
                if live > peak:
                    peak = live
            if peak > peaks.get(comp, 0):
                peaks[comp] = peak
        return peaks

    # -- fan-in ----------------------------------------------------------------

    def fan_ins(self, prefix: str = "") -> Dict[str, int]:
        """component → fan-in, optionally filtered by label prefix."""
        return {
            comp: len(senders)
            for comp, senders in self.sources.items()
            if comp.startswith(prefix)
        }

    # -- hop depth -------------------------------------------------------------

    def _request_depth(self, span: Span) -> int:
        # Iterative DFS: binding walks can recurse through many tiers and
        # this must not depend on Python's recursion limit.
        best = 0
        stack = [(span, 0)]
        while stack:
            node, depth = stack.pop()
            if node.kind == "request":
                depth += 1
                best = depth if depth > best else best
            for child in self._children.get(node.span_id, ()):
                stack.append((child, depth))
        return best

    def roots(self) -> List[Span]:
        """Roots of the span set (parent absent or outside the set)."""
        return [
            s
            for s in self.spans
            if s.parent_id == 0 or s.parent_id not in self._by_id
        ]

    def hop_depths(self) -> List[int]:
        """Per logical operation: max request-hop depth of its span tree."""
        return [self._request_depth(root) for root in self.roots()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LoadLedger spans={len(self.spans)} components={len(self.handled)}>"
