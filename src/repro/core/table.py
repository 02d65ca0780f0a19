"""The class object's logical table (paper Fig. 16, section 3.7).

"To perform the functions for which it is responsible, each class object
must *logically* maintain the table depicted in Figure 16."  One row per
object the class created (instance or subclass), with the five fields the
paper specifies:

* **LOID** -- which object the row describes;
* **Object Address** -- the address if Active and known, else NIL;
* **Current Magistrate List** -- magistrates holding an Object Persistent
  Representation of the object;
* **Scheduling Agent** -- the object responsible for scheduling this one
  (a hook; scheduling policy lives outside the core model);
* **Candidate Magistrate List** -- magistrates that may be given
  responsibility for the object (None means "no restriction").

The paper notes classes "may employ other Legion objects, such as database
servers," to store the table; this implementation keeps it in-object, but
the interface is deliberately repository-like so that substitution stays
possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import UnknownObject
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress


@dataclass
class TableRow:
    """One row of the logical table (Fig. 16)."""

    loid: LOID
    #: NIL (None) when the object is Inert or its address is unknown.
    object_address: Optional[ObjectAddress] = None
    #: Magistrates currently holding an OPR for the object.
    current_magistrates: List[LOID] = field(default_factory=list)
    #: The scheduling hook of section 3.7.
    scheduling_agent: Optional[LOID] = None
    #: None means "no restriction" (the paper's richer language mechanism
    #: for naming magistrate sets is represented by an explicit list or
    #: the no-restriction sentinel).
    candidate_magistrates: Optional[List[LOID]] = None
    #: True for rows created by Derive() rather than Create().
    is_subclass: bool = False
    #: Target size for system-level replica groups (CreateReplicated);
    #: 0 for plain objects.  A positive value marks the row's address as
    #: class-owned (ReportDeadReplica / AddReplica, never magistrate
    #: recovery -- even at group size 1) and caps AddReplica growth, so
    #: racing repairers cannot inflate the group past its target.
    replica_want: int = 0
    #: Set when the object has been Delete()d; retained briefly so stale
    #: lookups get a definitive "gone" rather than a confusing miss.
    deleted: bool = False

    @property
    def replicated(self) -> bool:
        """Whether this row is a system-level replica group (4.3)."""
        return self.replica_want > 0


class LogicalTable:
    """The table a class object maintains over its instances/subclasses."""

    def __init__(self) -> None:
        self._rows: Dict[Tuple[int, int], TableRow] = {}

    # -- row management ---------------------------------------------------------

    def add(self, row: TableRow) -> None:
        """Insert the row for a freshly created object."""
        key = row.loid.identity
        if key in self._rows and not self._rows[key].deleted:
            raise UnknownObject(f"duplicate logical-table row for {row.loid}")
        self._rows[key] = row

    def get(self, loid: LOID) -> TableRow:
        """The row for ``loid``; raises :class:`UnknownObject` if absent."""
        row = self._rows.get(loid.identity)
        if row is None:
            raise UnknownObject(f"no logical-table row for {loid}")
        return row

    def find(self, loid: LOID) -> Optional[TableRow]:
        """The row for ``loid`` or None."""
        return self._rows.get(loid.identity)

    def mark_deleted(self, loid: LOID) -> None:
        """Flag the row deleted (Delete() semantics)."""
        row = self.get(loid)
        row.deleted = True
        row.object_address = None
        row.current_magistrates = []

    # -- queries ----------------------------------------------------------------------

    def instances(self) -> List[TableRow]:
        """Rows created by Create(), excluding deleted ones."""
        return [r for r in self._rows.values() if not r.is_subclass and not r.deleted]

    def __len__(self) -> int:
        return sum(1 for r in self._rows.values() if not r.deleted)

    def __iter__(self) -> Iterator[TableRow]:
        return iter([r for r in self._rows.values() if not r.deleted])

    def __contains__(self, loid: LOID) -> bool:
        row = self._rows.get(loid.identity)
        return row is not None and not row.deleted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LogicalTable rows={len(self._rows)}>"
