"""Jurisdiction: a set of hosts plus aggregate persistent storage.

"Jurisdictions are potentially non-disjoint; both hosts and persistent
storage may be contained in two or more Jurisdictions, and Jurisdictions
can be organized to form hierarchies.  The union of all Jurisdictions
comprises the full Legion system." (section 2.2, Fig. 10)

A Jurisdiction is *descriptive* resource bookkeeping -- all lifecycle
intelligence lives in its Magistrate.  The one structural requirement it
enforces is Fig. 11's visibility rule: every host of the jurisdiction can
reach the whole vault, which in the simulation is automatic because the
vault is jurisdiction-scoped, and which migration (an OPR written through
one host, activated on another) exercises.
"""

from __future__ import annotations

from typing import List, Optional, Set

from repro.errors import LegionError
from repro.naming.loid import LOID
from repro.persistence.vault import Vault


class Jurisdiction:
    """One autonomous resource partition (see module docstring)."""

    def __init__(self, name: str, parent: Optional["Jurisdiction"] = None) -> None:
        self.name = name
        self.parent = parent
        self.children: List["Jurisdiction"] = []
        if parent is not None:
            parent.children.append(self)
        #: Host ids (network-level 32-bit host identifiers) in this
        #: jurisdiction.  A host id may appear in several jurisdictions.
        self.host_ids: Set[int] = set()
        #: LOIDs of the Host Objects representing those hosts.
        self.host_objects: List[LOID] = []
        self.vault = Vault(name)
        #: The Magistrate in charge (None until one adopts it).
        self.magistrate: Optional[LOID] = None

    # -- membership -------------------------------------------------------------

    def add_host(self, host_id: int, host_object: LOID) -> None:
        """Include a host (and its Host Object) in this jurisdiction."""
        self.host_ids.add(host_id)
        if host_object not in self.host_objects:
            self.host_objects.append(host_object)

    def remove_host(self, host_id: int, host_object: LOID) -> None:
        """Withdraw a host (site autonomy: resources can be reclaimed)."""
        self.host_ids.discard(host_id)
        if host_object in self.host_objects:
            self.host_objects.remove(host_object)

    # -- hierarchy -----------------------------------------------------------------

    def ancestors(self) -> List["Jurisdiction"]:
        """Parent chain, nearest first."""
        out: List["Jurisdiction"] = []
        current = self.parent
        while current is not None:
            if current in out:
                raise LegionError(f"jurisdiction hierarchy cycle at {current.name}")
            out.append(current)
            current = current.parent
        return out

    def subtree(self) -> List["Jurisdiction"]:
        """This jurisdiction and all descendants (preorder)."""
        out: List["Jurisdiction"] = [self]
        for child in self.children:
            out.extend(child.subtree())
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Jurisdiction {self.name!r} hosts={len(self.host_ids)} "
            f"oprs={self.vault.opr_count}>"
        )
