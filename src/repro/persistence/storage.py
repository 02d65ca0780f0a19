"""PersistentStore: one simulated disk of a jurisdiction.

A flat namespace of OPR files with byte accounting.  The store is
deliberately dumb -- write/read/delete/list -- because the paper gives all
lifecycle intelligence to Magistrates; the store just has to hold bytes
and give them back.
"""

from __future__ import annotations

import itertools
from typing import Dict, List

from repro.errors import StorageError
from repro.persistence.opr import OPRecord, PersistentAddress


class PersistentStore:
    """A simulated disk identified by (jurisdiction, store name)."""

    def __init__(self, jurisdiction: str, name: str) -> None:
        self.jurisdiction = jurisdiction
        self.name = name
        self._files: Dict[str, bytes] = {}
        self._counter = itertools.count(1)
        #: Bytes currently stored, kept by ``write`` and ``delete`` so a
        #: vault's placement reads it in O(1).
        self.used_bytes = 0

    # -- file operations ---------------------------------------------------------------

    def write(self, record: OPRecord) -> PersistentAddress:
        """Store an OPR; returns its fresh Object Persistent Address."""
        blob = record.to_bytes()
        filename = f"opr-{record.loid.class_id}.{record.loid.class_specific}-{next(self._counter)}"
        self._files[filename] = blob
        self.used_bytes += len(blob)
        return PersistentAddress(self.jurisdiction, self.name, filename)

    def read(self, address: PersistentAddress) -> OPRecord:
        """Load the OPR at ``address``.

        Object Persistent Addresses are jurisdiction-local (section 3.1.1):
        an address minted by another jurisdiction is rejected outright.
        """
        self._check_ours(address)
        blob = self._files.get(address.filename)
        if blob is None:
            raise StorageError(f"no OPR at {address}")
        return OPRecord.from_bytes(blob)

    def delete(self, address: PersistentAddress) -> None:
        """Remove the OPR at ``address``."""
        self._check_ours(address)
        blob = self._files.pop(address.filename, None)
        if blob is None:
            raise StorageError(f"no OPR at {address}")
        self.used_bytes -= len(blob)

    def exists(self, address: PersistentAddress) -> bool:
        """Whether an OPR is stored at ``address``."""
        return (
            address.jurisdiction == self.jurisdiction
            and address.store == self.name
            and address.filename in self._files
        )

    def list_files(self) -> List[str]:
        """All stored filenames, sorted."""
        return sorted(self._files)

    def _check_ours(self, address: PersistentAddress) -> None:
        if address.jurisdiction != self.jurisdiction or address.store != self.name:
            raise StorageError(
                f"persistent address {address} is not meaningful in "
                f"{self.jurisdiction}:{self.name} (addresses are jurisdiction-local)"
            )

    def __len__(self) -> int:
        return len(self._files)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PersistentStore {self.jurisdiction}:{self.name} "
            f"files={len(self._files)} used={self.used_bytes}>"
        )
