"""Per-component request counters.

A *component* is one Legion object playing an infrastructure role: a class
object, LegionClass itself, a Binding Agent, a Magistrate, a Host Object.
Counters are keyed by (kind, name) so experiments can ask questions like
"what is the maximum request count over all binding agents?" or "how many
requests did LegionClass itself serve during the measurement phase?".
"""

from __future__ import annotations

import enum
from collections import defaultdict
from typing import Dict, NamedTuple, Optional


class ComponentKind(enum.Enum):
    """Infrastructure roles whose load the paper reasons about."""

    LEGION_CLASS = "legion-class"      # the single logical LegionClass object
    CLASS_OBJECT = "class-object"      # ordinary class objects
    BINDING_AGENT = "binding-agent"
    MAGISTRATE = "magistrate"
    HOST_OBJECT = "host-object"
    SCHEDULER = "scheduler"
    APPLICATION = "application"        # user-level objects (not infrastructure)
    OTHER = "other"

    # Identity-compared singletons inside every ComponentId key: hash in C
    # (see LinkClass for why nothing is given up).
    __hash__ = object.__hash__


class ComponentId(NamedTuple):
    """Identity of one counted component.

    A tuple so that the per-request ``incr`` hashes its key in C.
    """

    kind: ComponentKind
    name: str

    def __str__(self) -> str:
        return f"{self.kind.value}:{self.name}"


class MetricsRegistry:
    """Central counter store; one per LegionSystem.

    ``incr(component, event)`` bumps a named event counter; ``requests``
    is the conventional event name every ObjectServer uses for an incoming
    REQUEST, so the scalability experiments have a uniform metric.
    """

    REQUESTS = "requests"
    #: Conventional event name for requests shed by admission control
    #: (repro.flow): counted *instead of* REQUESTS, never both, so
    #: ``requests`` keeps meaning "admitted into dispatch".
    SHED = "shed"

    def __init__(self) -> None:
        #: component -> REQUESTS count, holding every component ever
        #: counted (0 if it only ever counted other events), in
        #: first-count order: the one ordering every reader iterates.
        self._requests: Dict[ComponentId, int] = defaultdict(int)
        #: event -> component -> count, for every event but REQUESTS.
        self._events: Dict[str, Dict[ComponentId, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    # -- writing ---------------------------------------------------------------

    def incr(self, component: ComponentId, event: str) -> None:
        """Add one to the component's ``event`` counter."""
        if event == self.REQUESTS:
            self._requests[component] += 1
        else:
            self._requests.setdefault(component, 0)
            self._events[event][component] += 1

    def reset(self) -> None:
        """Zero everything (between warm-up and measurement phases)."""
        self._requests.clear()
        self._events.clear()

    # -- reading ---------------------------------------------------------------

    def _counts_of(self, event: str) -> Dict[ComponentId, int]:
        return self._requests if event == self.REQUESTS else self._events.get(event, {})

    def get(self, component: ComponentId) -> int:
        """The component's ``requests`` count (0 if it never reported)."""
        return self._requests.get(component, 0)

    def totals_by_kind(self) -> Dict[ComponentKind, int]:
        """Sum of ``requests`` over all components of each kind."""
        out: Dict[ComponentKind, int] = defaultdict(int)
        for comp, count in self._requests.items():
            out[comp.kind] += count
        return dict(out)

    def max_by_kind(self, kind: ComponentKind) -> int:
        """The *maximum* ``requests`` count over components of ``kind``.

        This is the paper's bottleneck metric: a kind scales if its max
        per-component load stays bounded as the system grows.
        """
        loads = [count for comp, count in self._requests.items() if comp.kind == kind]
        return max(loads, default=0)

    def loads(self, kind: ComponentKind, event: str = REQUESTS) -> Dict[str, int]:
        """Per-component ``event`` counts for one kind, keyed by name."""
        counts = self._counts_of(event)
        return {comp.name: counts.get(comp, 0) for comp in self._requests if comp.kind == kind}

    def labelled_counts(self, event: str = REQUESTS) -> Dict[str, int]:
        """All ``event`` counts keyed by the "kind:name" component label.

        The labels are exactly the ``component`` strings causal-trace
        spans carry, so a trace-derived load ledger can be reconciled
        against these counters entry by entry (see repro.trace.audit).
        """
        counts = self._counts_of(event)
        return {str(comp): counts[comp] for comp in self._requests if counts.get(comp, 0)}

    def snapshot(
        self, kind: Optional[ComponentKind] = None, event: str = REQUESTS
    ) -> Dict[str, int]:
        """A point-in-time copy of ``event`` counts for delta computation.

        Keyed by component name when ``kind`` is given, by the full
        "kind:name" label otherwise.  The autoscaler's LoadMonitor diffs
        consecutive snapshots to turn cumulative counters into rates.
        """
        if kind is not None:
            return self.loads(kind, event)
        counts = self._counts_of(event)
        return {str(comp): counts.get(comp, 0) for comp in self._requests}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry components={len(self._requests)}>"
