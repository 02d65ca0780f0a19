"""ReplicatedStoreImpl: the versioned KV workload behind the policies.

One implementation serves both consistency policies
(:mod:`repro.replication.policy`):

* **read-any** -- immutable after ``Freeze()``; ``Get`` is a plain read
  any replica can answer, so the locality-ordered FIRST call path *is*
  the read path;
* **primary-copy** -- ``WritePrimary`` assigns the next version at the
  group's primary; sessions then push acked ``Invalidate`` markers to
  the secondaries, whose ``GetVersioned`` flags the copy stale until a
  newer value lands.

Seeding writes every copy with ``PutVersioned`` at an explicit version;
last writer wins per key.

``service_time`` (optional) makes ``Get`` a strictly serial FIFO server
exactly like :class:`repro.workloads.apps.SerialServiceImpl`, so
overload experiments can saturate a replica deterministically.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.core.object_base import LegionObjectImpl, legion_method
from repro.errors import RequestRefused
from repro.simkernel.kernel import Timeout


class ReplicatedStoreImpl(LegionObjectImpl):
    """A versioned key-value replica.  See module docstring."""

    def __init__(self, service_time: float = 0.0) -> None:
        #: key -> (version, value); version 0 means "never written".
        self.data: Dict[str, Tuple[int, Any]] = {}
        #: key -> lowest version this copy may still serve as fresh.
        #: A copy whose stored version is below the marker is *stale*:
        #: it answers GetVersioned with fresh=False until a write at or
        #: above the marker lands.
        self.invalid_at: Dict[str, int] = {}
        self.frozen = False
        #: Simulated ms of exclusive service per Get (0 = instantaneous).
        self.service_time = float(service_time)
        self.busy_until = 0.0
        self.reads_served = 0

    def persistent_attributes(self) -> List[str]:
        return [
            "data",
            "invalid_at",
            "frozen",
            "service_time",
            "busy_until",
            "reads_served",
        ]

    def _refuse_if_frozen(self) -> None:
        if self.frozen:
            raise RequestRefused("store is frozen (immutable OPR)")

    # -------------------------------------------------------------- writes

    @legion_method("int WritePrimary(string, value)")
    def write_primary(self, key: str, value: Any) -> int:
        """Primary-copy write: assign the next version here; returns it."""
        self._refuse_if_frozen()
        version = self.data.get(key, (0, None))[0] + 1
        self.data[key] = (version, value)
        if self.invalid_at.get(key, 0) <= version:
            self.invalid_at.pop(key, None)
        return version

    @legion_method("int PutVersioned(string, int, value)")
    def put_versioned(self, key: str, version: int, value: Any) -> int:
        """Seeding write at an explicit version (last writer wins).

        Applies only when ``version`` is newer than the stored copy;
        returns the version now stored either way.
        """
        self._refuse_if_frozen()
        current = self.data.get(key, (0, None))[0]
        if version > current:
            self.data[key] = (int(version), value)
            current = int(version)
            if self.invalid_at.get(key, 0) <= current:
                self.invalid_at.pop(key, None)
        return current

    @legion_method("Invalidate(string, int)")
    def invalidate(self, key: str, version: int) -> None:
        """Primary-copy invalidation: mark copies below ``version`` stale."""
        if self.data.get(key, (0, None))[0] >= version:
            return  # already caught up; nothing to invalidate
        self.invalid_at[key] = max(self.invalid_at.get(key, 0), int(version))

    @legion_method("Freeze()")
    def freeze(self) -> None:
        """Make this copy immutable (the read-any regime)."""
        self.frozen = True

    # --------------------------------------------------------------- reads

    @legion_method("value Get(string)")
    def get(self, key: str):
        """Plain read (read-any path); KeyError crosses as InvocationFailed.

        Pays one FIFO service slot when ``service_time`` is set, so a
        replica has a hard capacity of ``1/service_time`` reads per ms.
        """
        if self.service_time > 0.0:
            now = self.services.kernel.now
            start = self.busy_until if self.busy_until > now else now
            self.busy_until = start + self.service_time
            yield Timeout(self.busy_until - now)
        self.reads_served += 1
        return self.data[key][1]

    @legion_method("tuple GetVersioned(string)")
    def get_versioned(self, key: str) -> Tuple[int, Any, bool]:
        """Policy-aware read: (version, value, fresh).

        ``fresh`` is False when an Invalidate marker outruns the stored
        copy -- primary-copy sessions then fall back to the primary.
        Missing keys read as (0, None, True): "never written" is a
        consistent answer, not an error.
        """
        version, value = self.data.get(key, (0, None))
        fresh = self.invalid_at.get(key, 0) <= version
        return (version, value, fresh)

    @legion_method("int Size()")
    def size(self) -> int:
        """Number of stored keys."""
        return len(self.data)
