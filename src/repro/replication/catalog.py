"""Replica catalogs: site-local placement maps plus a global index.

The shape is the EU DataGrid replica-location service (PAPERS.md): each
jurisdiction runs a **ReplicaCatalog** mapping LOID -> the replica
elements *at this site*, and a single lightweight **GlobalReplicaIndex**
answers the cross-jurisdiction question "which sites hold replicas of
this LOID, and how many?".  Catalogs are authoritative for their site
only; the index holds counts, never addresses, so it stays small and its
loss costs a rebuild, not data.

Both are ordinary application-level Legion objects.  They learn about
placement through one-way EVENT messages -- class objects gossip
``replica-news`` on CreateReplicated / AddReplica / ReportDeadReplica,
catalogs forward ``site-holds`` digests to the index -- so keeping the
map current costs no round trips on any foreground path.  Queries
(the repair service's ``Tracked`` scans, ``UnderReplicated``) are normal
method invocations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from repro.core.object_base import LegionObjectImpl, legion_method
from repro.naming.loid import LOID


class ReplicaCatalogImpl(LegionObjectImpl):
    """One jurisdiction's LOID -> local-replica-set map."""

    def __init__(self, site: str = "") -> None:
        self.site = site
        #: loid identity -> entry dict:
        #:   loid        the LOID itself,
        #:   class_loid  the managing class object,
        #:   want        the group's global replication target,
        #:   elements    replica address elements at *this* site.
        self.entries: Dict[int, Dict[str, Any]] = {}
        #: Address element of the GlobalReplicaIndex (set via SetIndex).
        self.index_element: Any = None
        self.news_seen = 0

    def persistent_attributes(self) -> List[str]:
        return ["site", "entries", "index_element", "news_seen"]

    # ------------------------------------------------------------- queries

    @legion_method("SetIndex(element)")
    def set_index(self, element: Any) -> None:
        """Point this catalog at the global index."""
        self.index_element = element

    @legion_method("list Tracked()")
    def tracked(self) -> List[Tuple[LOID, int, LOID]]:
        """Every group this site participates in: (loid, want, class).

        Sorted by LOID identity so repair sweeps are deterministic.
        """
        return [
            (entry["loid"], entry["want"], entry["class_loid"])
            for _identity, entry in sorted(self.entries.items())
        ]

    # ---------------------------------------------------------- event plane

    def handle_event(self, payload: Any, source: Any) -> None:
        """Placement news from class objects (one-way, no round trips)."""
        if not (isinstance(payload, tuple) and payload and payload[0] == "replica-news"):
            return
        _tag, kind, loid, elements, want, class_loid = payload
        self.news_seen += 1
        entry = self.entries.get(loid.identity)
        if entry is None:
            entry = {
                "loid": loid,
                "class_loid": class_loid,
                "want": 0,
                "elements": set(),
            }
            self.entries[loid.identity] = entry
        if class_loid is not None:
            entry["class_loid"] = class_loid
        if want:
            entry["want"] = max(entry["want"], int(want))
        local: Set[Any] = entry["elements"]
        if kind in ("add", "group"):
            local.update(elements)
        elif kind == "remove":
            local.difference_update(elements)
        self._forward_to_index(entry)

    def _forward_to_index(self, entry: Dict[str, Any]) -> None:
        """Digest this entry to the global index (site, count, want)."""
        runtime = getattr(self, "runtime", None)
        if self.index_element is None or runtime is None:
            return
        runtime.send_event(
            self.index_element,
            (
                "site-holds",
                self.site,
                entry["loid"],
                len(entry["elements"]),
                entry["want"],
                entry["class_loid"],
            ),
        )


class GlobalReplicaIndexImpl(LegionObjectImpl):
    """Cross-jurisdiction lookup: LOID -> {site: replica count}."""

    def __init__(self) -> None:
        #: loid identity -> {site: count} (zero-count sites are dropped).
        self.holdings: Dict[int, Dict[str, int]] = {}
        #: loid identity -> (loid, want, class_loid) bookkeeping.
        self.groups: Dict[int, Tuple[LOID, int, Optional[LOID]]] = {}
        self.digests_seen = 0

    def persistent_attributes(self) -> List[str]:
        return ["holdings", "groups", "digests_seen"]

    @legion_method("list UnderReplicated()")
    def under_replicated(self) -> List[Tuple[LOID, int, int, Optional[LOID]]]:
        """Groups below target: sorted (loid, have, want, class_loid)."""
        out = []
        for identity, (loid, want, class_loid) in sorted(self.groups.items()):
            have = sum(self.holdings.get(identity, {}).values())
            if want and have < want:
                out.append((loid, have, want, class_loid))
        return out

    def handle_event(self, payload: Any, source: Any) -> None:
        """Site digests from the per-jurisdiction catalogs."""
        if not (isinstance(payload, tuple) and payload and payload[0] == "site-holds"):
            return
        _tag, site, loid, count, want, class_loid = payload
        self.digests_seen += 1
        holdings = self.holdings.setdefault(loid.identity, {})
        if count:
            holdings[site] = int(count)
        else:
            holdings.pop(site, None)
        old = self.groups.get(loid.identity)
        old_want = old[1] if old is not None else 0
        self.groups[loid.identity] = (
            loid,
            max(old_want, int(want)),
            class_loid if class_loid is not None else (old[2] if old else None),
        )
