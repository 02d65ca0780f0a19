"""CompositeImpl: run-time composed instances (active multiple inheritance).

Paper section 2.1.1: "multiple inheritance in Legion is a two step process.
First, the class is created by calling Derive() ... Second, the composition
of future instances of the class is set via calls to the InheritFrom()
method ...  When the instances of the class are created via the Create()
method, their composition reflects the way the class was defined in the
inheritance process."

We make that composition literal: an instance of a class that inherits
from base classes is a :class:`CompositeImpl` wrapping an ordered chain of
part implementations -- its own first, then one per base, in InheritFrom()
order.  Method dispatch searches the chain; the first part exporting the
(name, arity) wins, so the class's own methods override inherited ones.
All parts share the composite's LOID, runtime, and services: they are one
Legion object.
"""

from __future__ import annotations

import pickle
from typing import Any, List, Optional

from repro.core.object_base import LegionObjectImpl, _Export
from repro.idl.interface import Interface
from repro.security.mayi import MayIPolicy


class _BoundExport:
    """An export re-targeted at a specific part of the composite.

    Mimics the :class:`_Export` protocol the ObjectServer dispatches on
    (``signature``, ``fn``, ``wants_ctx``) but closes over the part, so
    ``fn(composite, *args)`` actually runs ``part_method(part, *args)``.
    """

    __slots__ = ("signature", "fn", "wants_ctx")

    def __init__(self, export: _Export, part: LegionObjectImpl) -> None:
        self.signature = export.signature
        self.wants_ctx = export.wants_ctx
        inner = export.fn

        def fn(_composite: LegionObjectImpl, *args: Any, **kwargs: Any) -> Any:
            return inner(part, *args, **kwargs)

        self.fn = fn


class CompositeImpl(LegionObjectImpl):
    """One Legion object assembled from an ordered chain of part impls.

    ``exposures`` optionally restricts which method *names* each part
    contributes (None = everything): the enforcement half of selective
    inheritance (the paper's "select the components that it wishes to
    inherit" footnote).  Object-mandatory methods are always exposed --
    an object cannot select away MayI/SaveState/etc.
    """

    #: Method names every Legion object must keep exporting.
    _ALWAYS_EXPOSED = frozenset(
        {"MayI", "Iam", "Ping", "GetInterface", "SaveState", "RestoreState"}
    )

    def __init__(
        self,
        parts: List[LegionObjectImpl],
        exposures: Optional[List[Optional[set]]] = None,
    ) -> None:
        if not parts:
            raise ValueError("a composite needs at least one part")
        self.parts = list(parts)
        if exposures is None:
            exposures = [None] * len(parts)
        if len(exposures) != len(parts):
            raise ValueError("exposures must align with parts")
        self.exposures: List[Optional[set]] = [
            None if e is None else set(e) for e in exposures
        ]

    def _exposes(self, index: int, name: str) -> bool:
        allowed = self.exposures[index]
        return (
            allowed is None
            or name in allowed
            or name in self._ALWAYS_EXPOSED
        )

    #: Methods whose wire-level behaviour must aggregate over the whole
    #: composite rather than any single part: interface introspection and
    #: state capture.  Routed to the composite's own implementations.
    _COMPOSITE_OWNED = frozenset(
        {
            ("GetInterface", 0),
            ("SaveState", 0),
            ("RestoreState", 1),
            ("MayI", 1),
            ("Iam", 1),
        }
    )

    # -- dispatch ------------------------------------------------------------

    def find_export(self, method: str, arity: int) -> Optional[Any]:
        """First part (chain order) exposing (method, arity) wins."""
        if (method, arity) in self._COMPOSITE_OWNED:
            # e.g. a remote SaveState() must capture every part's state,
            # not just the first part's.
            return super().find_export(method, arity)
        for index, part in enumerate(self.parts):
            if not self._exposes(index, method):
                continue
            export = type(part).exports().get((method, arity))
            if export is not None:
                return _BoundExport(export, part)
        # Fall back to methods defined on CompositeImpl itself (none extra
        # today, but keeps the contract of the base class).
        return super().find_export(method, arity)

    def get_interface(self) -> Interface:
        """The union of the parts' exposed interfaces."""
        merged = type(self.parts[0]).exported_interface()
        if self.exposures[0] is not None:
            merged = merged.restricted_to(
                self.exposures[0] | self._ALWAYS_EXPOSED
            )
        for index, part in enumerate(self.parts[1:], start=1):
            contribution = type(part).exported_interface()
            if self.exposures[index] is not None:
                contribution = contribution.restricted_to(
                    self.exposures[index] | self._ALWAYS_EXPOSED
                )
            merged = merged.merged_with(contribution)
        return merged

    @property
    def mayi_policy(self) -> MayIPolicy:  # type: ignore[override]
        """The primary part's policy governs the whole composite, read
        live: a policy set on the part or on the composite applies to the
        next request either way."""
        return self.parts[0].mayi_policy

    @mayi_policy.setter
    def mayi_policy(self, policy: MayIPolicy) -> None:
        self.parts[0].mayi_policy = policy

    # -- wiring --------------------------------------------------------------------

    def on_activated(self) -> None:
        """Wire every part with the shared identity and runtime."""
        for part in self.parts:
            part.loid = self.loid
            part.runtime = self.runtime
            part.services = self.services
            part.on_activated()

    def on_deactivating(self) -> None:
        for part in self.parts:
            part.on_deactivating()

    def handle_event(self, payload: Any, source: Any) -> None:
        """Events go to the primary part (override by part order)."""
        self.parts[0].handle_event(payload, source)

    # -- persistence -------------------------------------------------------------------

    def save_state(self) -> bytes:
        """Concatenate each part's state, preserving chain order."""
        return pickle.dumps(
            [part.save_state() for part in self.parts],
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    def restore_state(self, blob: bytes) -> None:
        """Inverse of :meth:`save_state`; chain shapes must match."""
        blobs = pickle.loads(blob)
        for part, part_blob in zip(self.parts, blobs, strict=True):
            part.restore_state(part_blob)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = "+".join(type(p).__name__ for p in self.parts)
        return f"<CompositeImpl {self.loid} [{names}]>"
