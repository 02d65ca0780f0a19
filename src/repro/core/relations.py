"""The is-a / kind-of / inherits-from relation graph (paper Fig. 2).

The three relations the class-mandatory member functions define
(section 2.1.1):

* **is-a** (Create): non-class object → its class.  "An object belongs to
  exactly one class."
* **kind-of** (Derive): subclass → superclass.  "A class ... is the
  subclass of exactly one superclass."
* **inherits-from** (InheritFrom): class → base class.  "A class can
  inherit from, and be a base class for, any number of other classes."

The graph is system-wide bookkeeping used for introspection, invariants
(tests assert, e.g., that the union of kind-of and is-a has LegionObject's
class as its only sink, per section 2.1.3), and the experiments' hierarchy
construction.  It is *descriptive*: the authoritative state lives in the
class objects' logical tables; this graph mirrors it.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Set

from repro.errors import ObjectModelError
from repro.naming.loid import LOID


class RelationKind(enum.Enum):
    """The three edge flavours of Fig. 2."""

    IS_A = "is-a"
    KIND_OF = "kind-of"
    INHERITS_FROM = "inherits-from"


#: node -> neighbour -> kinds of the (parallel) edges between the two.
_Adjacency = Dict[LOID, Dict[LOID, List[RelationKind]]]


class RelationGraph:
    """A typed multigraph over LOIDs recording the three relations.

    Edges point from the dependent object to the one it relates to:
    ``O --is-a--> C``, ``D --kind-of--> C``, ``C --inherits-from--> B``.

    is-a, the one relation every instance has, is one ``instance → class``
    entry in ``_is_a``; its class is a node of the class graph.  kind-of
    and inherits-from, between classes, live in two insertion-ordered
    adjacency maps, successors and predecessors; every class node has an
    entry in both.  :meth:`forget` costs the degree of the forgotten node,
    never that of its class.  Forgetting a class leaves its instances'
    is-a entries; each goes with its own Delete().
    """

    def __init__(self) -> None:
        self._is_a: Dict[LOID, LOID] = {}
        self._out: _Adjacency = {}
        self._in: _Adjacency = {}

    def _add_node(self, node: LOID) -> None:
        if node not in self._out:
            self._out[node] = {}
            self._in[node] = {}

    def _add_edge(self, source: LOID, target: LOID, kind: RelationKind) -> None:
        self._add_node(source)
        self._add_node(target)
        self._out[source].setdefault(target, []).append(kind)
        self._in[target].setdefault(source, []).append(kind)

    # -- recording ---------------------------------------------------------------

    def record_is_a(self, instance: LOID, cls: LOID) -> None:
        """O is-a C: set on Create().  At most one is-a edge per object."""
        existing = self._is_a.get(instance)
        if existing is not None:
            raise ObjectModelError(
                f"{instance} already is-a {existing}; an object belongs to "
                "exactly one class"
            )
        self._add_node(cls)
        self._is_a[instance] = cls

    def record_kind_of(self, subclass: LOID, superclass: LOID) -> None:
        """D kind-of C: set on Derive().  At most one superclass."""
        existing = self.superclass_of(subclass)
        if existing is not None:
            raise ObjectModelError(
                f"{subclass} already kind-of {existing}; a class is the "
                "subclass of exactly one superclass"
            )
        self._add_edge(subclass, superclass, RelationKind.KIND_OF)

    def record_inherits_from(self, cls: LOID, base: LOID) -> None:
        """C inherits-from B: set on InheritFrom().  Many allowed."""
        if base in self.bases_of(cls):
            return  # idempotent
        if cls == base:
            raise ObjectModelError(f"{cls} cannot inherit from itself")
        # Reject inheritance cycles: the paper's inheritance is an active,
        # run-time process, and a cycle would make interface merging
        # non-terminating.
        if cls in self._inherits_closure(base):
            raise ObjectModelError(
                f"inherits-from cycle: {base} already (transitively) inherits from {cls}"
            )
        self._add_edge(cls, base, RelationKind.INHERITS_FROM)

    def forget(self, loid: LOID) -> None:
        """Remove an object and its incident edges (Delete())."""
        self._is_a.pop(loid, None)
        if loid not in self._out:
            return
        for target in self._out.pop(loid):
            if target != loid:
                del self._in[target][loid]
        for source in self._in.pop(loid):
            if source != loid:
                del self._out[source][loid]

    # -- single-step queries --------------------------------------------------------

    @staticmethod
    def _neighbours(adjacency: _Adjacency, loid: LOID, kind: RelationKind) -> List[LOID]:
        return [
            other
            for other, kinds in adjacency.get(loid, {}).items()
            if kind in kinds
        ]

    def class_of(self, instance: LOID) -> Optional[LOID]:
        """The unique class an object is-a, or None."""
        return self._is_a.get(instance)

    def superclass_of(self, cls: LOID) -> Optional[LOID]:
        """The unique superclass a class is kind-of, or None (roots)."""
        supers = self._neighbours(self._out, cls, RelationKind.KIND_OF)
        return supers[0] if supers else None

    def bases_of(self, cls: LOID) -> List[LOID]:
        """All base classes (inherits-from targets)."""
        return self._neighbours(self._out, cls, RelationKind.INHERITS_FROM)

    # -- transitive queries -------------------------------------------------------------

    def _inherits_closure(self, cls: LOID) -> Set[LOID]:
        closure: Set[LOID] = set()
        stack = [cls]
        while stack:
            current = stack.pop()
            for base in self.bases_of(current):
                if base not in closure:
                    closure.add(base)
                    stack.append(base)
        return closure

    # -- invariants ------------------------------------------------------------------------

    def sinks(self) -> List[LOID]:
        """Nodes with no outgoing is-a or kind-of edges.

        Section 2.1.3: "the class object for LegionObject is the only sink
        in the graph that is implied by the union of the kind-of and is-a
        relations" -- tests assert this returns exactly [LegionObject].
        Every instance has its is-a edge, so only class nodes can be sinks.
        """
        return sorted(
            node
            for node, targets in self._out.items()
            if not any(
                RelationKind.KIND_OF in kinds for kinds in targets.values()
            )
        )

    def __contains__(self, loid: LOID) -> bool:
        return loid in self._out or loid in self._is_a

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RelationGraph classes={len(self._out)} instances={len(self._is_a)}>"
