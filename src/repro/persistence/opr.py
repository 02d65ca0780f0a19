"""Object Persistent Representations and Addresses (paper section 3.1.1).

"An Object Persistent Representation is a sequential set of bytes that
represents an Inert object, and that can be used by a Magistrate to
activate the object.  An executable file could be an Object Persistent
Representation for an object that has yet to become Active.  However, once
an object is activated, it may acquire state information that would need
to be stored as part of the Object Persistent Representation."

An :class:`OPRecord` therefore has two halves:

* the **implementation reference** -- a *factory chain*: an ordered list
  of (factory name, init kwargs) pairs naming entries of the system's
  :class:`~repro.core.context.ImplRegistry`.  A chain of length one is
  the plain executable; longer chains are how the active multiple
  inheritance of section 2.1.1 composes instances out of base-class
  implementations;
* the **saved state** -- the bytes SaveState() produced, or None for an
  object that has never been Active.

``to_bytes``/``from_bytes`` give the paper's sequential-byte form.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import StorageError
from repro.naming.loid import LOID


@dataclass(frozen=True)
class PersistentAddress:
    """An Object Persistent Address: jurisdiction-local 'file name'.

    "will typically be a file name, and will only be meaningful within the
    Jurisdiction in which it resides" -- hence the explicit jurisdiction
    tag, which lets tests assert that cross-jurisdiction dereferencing is
    rejected rather than silently misbehaving.
    """

    jurisdiction: str
    store: str
    filename: str

    def __str__(self) -> str:
        return f"{self.jurisdiction}:/{self.store}/{self.filename}"


@dataclass
class OPRecord:
    """An Object Persistent Representation (see module docstring)."""

    loid: LOID
    class_loid: LOID
    #: Ordered (factory name, init kwargs) pairs; first is the object's own
    #: implementation, the rest are inherited base implementations.
    factory_chain: List[Tuple[str, Dict[str, Any]]]
    #: SaveState() output, or None before first activation.
    state: Optional[bytes] = None
    #: Metrics role of the object ("application", "class-object", ...).
    component_kind: str = "application"
    #: Extra creation-time annotations (host hints, security labels, ...).
    annotations: Dict[str, Any] = field(default_factory=dict)

    def with_state(self, state: Optional[bytes]) -> "OPRecord":
        """A copy carrying freshly saved state (post-deactivation), or
        with ``None`` the stateless template a magistrate keeps."""
        return OPRecord(
            loid=self.loid,
            class_loid=self.class_loid,
            factory_chain=list(self.factory_chain),
            state=state,
            component_kind=self.component_kind,
            annotations=dict(self.annotations),
        )

    # -- the sequential-set-of-bytes form ---------------------------------------

    def to_bytes(self) -> bytes:
        """Serialise to the paper's 'sequential set of bytes'."""
        payload = {
            "loid": self.loid.pack(),
            "class_loid": self.class_loid.pack(),
            "factory_chain": self.factory_chain,
            "state": self.state,
            "component_kind": self.component_kind,
            "annotations": self.annotations,
        }
        return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, data: bytes) -> "OPRecord":
        """Inverse of :meth:`to_bytes`."""
        try:
            payload = pickle.loads(data)
            return cls(
                loid=LOID.unpack(payload["loid"]),
                class_loid=LOID.unpack(payload["class_loid"]),
                factory_chain=list(payload["factory_chain"]),
                state=payload["state"],
                component_kind=payload.get("component_kind", "application"),
                annotations=dict(payload.get("annotations", {})),
            )
        except (KeyError, pickle.UnpicklingError, EOFError) as exc:
            raise StorageError(f"corrupt Object Persistent Representation: {exc}") from exc

    @property
    def size(self) -> int:
        """Approximate byte size (for store capacity accounting)."""
        return len(self.to_bytes())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{len(self.state)}B" if self.state is not None else "fresh"
        return f"<OPRecord {self.loid} impl={self.factory_chain[0][0]} state={state}>"
