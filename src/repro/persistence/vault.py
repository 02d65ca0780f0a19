"""Vault: a jurisdiction's aggregate persistent storage.

"A Jurisdiction consists of some aggregate persistent storage space and a
set of Legion hosts ... all of a Jurisdiction's persistent storage space
must be visible from each of its hosts." (sections 2.2, 3.1, Fig. 11)

The Vault is that aggregate: the union of a jurisdiction's
:class:`PersistentStore` disks, with placement (which disk gets a new OPR)
chosen by use: the emptiest disk.  It also keeps the LOID → Persistent Address index a
Magistrate needs to find the OPR of an object it manages.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.errors import StorageError
from repro.naming.loid import LOID
from repro.persistence.opr import OPRecord, PersistentAddress
from repro.persistence.storage import PersistentStore


class Vault:
    """The aggregate persistent storage of one jurisdiction."""

    def __init__(self, jurisdiction: str) -> None:
        self.jurisdiction = jurisdiction
        self._stores: Dict[str, PersistentStore] = {}
        self._index: Dict[Tuple[int, int], PersistentAddress] = {}

    # -- composition ----------------------------------------------------------

    def add_store(self, store: PersistentStore) -> None:
        """Attach a disk to the vault (it must belong to this jurisdiction)."""
        if store.jurisdiction != self.jurisdiction:
            raise StorageError(
                f"store {store.name} belongs to {store.jurisdiction}, "
                f"not {self.jurisdiction}"
            )
        if store.name in self._stores:
            raise StorageError(f"store {store.name} already in vault")
        self._stores[store.name] = store

    def stores(self) -> List[PersistentStore]:
        """All attached disks, by name order."""
        return [self._stores[name] for name in sorted(self._stores)]

    # -- OPR lifecycle -----------------------------------------------------------

    def store_opr(self, record: OPRecord) -> PersistentAddress:
        """Write an OPR onto the emptiest disk; index it by LOID.

        Re-storing an object (a new deactivation) replaces its old OPR.
        """
        if not self._stores:
            raise StorageError(f"vault {self.jurisdiction} has no stores attached")
        old = self._index.get(record.loid.identity)
        store = min(self._stores.values(), key=lambda s: (s.used_bytes, s.name))
        address = store.write(record)
        if old is not None:
            self._try_delete(old)
        self._index[record.loid.identity] = address
        return address

    def load_opr(self, loid: LOID) -> OPRecord:
        """Load the OPR of ``loid``; raises if this vault holds none."""
        address = self._index.get(loid.identity)
        if address is None:
            raise StorageError(f"vault {self.jurisdiction} holds no OPR for {loid}")
        return self._stores[address.store].read(address)

    def holds(self, loid: LOID) -> bool:
        """Whether this vault currently holds an OPR for ``loid``."""
        return loid.identity in self._index

    def delete_opr(self, loid: LOID) -> None:
        """Remove the OPR of ``loid`` (idempotent)."""
        address = self._index.pop(loid.identity, None)
        if address is not None:
            self._try_delete(address)

    def _try_delete(self, address: PersistentAddress) -> None:
        store = self._stores.get(address.store)
        if store is not None and store.exists(address):
            store.delete(address)

    # -- introspection -----------------------------------------------------------------

    @property
    def opr_count(self) -> int:
        """Number of Inert objects this vault holds."""
        return len(self._index)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Vault {self.jurisdiction} stores={len(self._stores)} "
            f"oprs={len(self._index)}>"
        )
