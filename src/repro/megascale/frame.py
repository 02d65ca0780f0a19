"""The columnar state table: dense component ids → numpy columns.

One :class:`StateFrame` holds the *bulk* population of a mega-scale
scenario -- millions of objects as parallel arrays instead of millions of
Python objects.  A row is one component: its class, the host slot it
occupies, its lifecycle band, its application state (a counter value),
its cumulative call/shed tallies, and its binding-cache entry (the clone
pool epoch it last bound against).  Transitions apply frame-at-once
(vivarium-style): one tick is a handful of vectorised operations over
the rows it names (see :mod:`repro.megascale.engine`), never a
per-object callback.

Ids are *dense and monotone*: :class:`IdAllocator` hands out contiguous
ranges and never recycles an id within a run, so escalation/demotion
churn can never alias two logical objects onto one row -- trace and audit
identities stay stable (see ``tests/megascale/test_frame.py`` for the
regression pinning this).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import LegionError
from repro.megascale.compat import require_numpy

#: Lifecycle bands of a bulk row.  BULK rows take frame-at-once
#: transitions; PROMOTED rows are owned by the rich-object path (their
#: bulk columns are frozen until demotion).
BULK, PROMOTED = 0, 1

BAND_NAMES = {BULK: "bulk", PROMOTED: "promoted"}


class IdAllocator:
    """Monotone dense-id allocator: ids are never reused within a run.

    Escalation promotes a row out of the bulk table and demotion folds it
    back, but neither movement ever *frees* the id -- a recycled id would
    let a trace span or audit row recorded before the churn silently
    refer to a different logical object after it.  ``alloc`` only ever
    moves the high-water mark forward; there is deliberately no
    ``release``.
    """

    def __init__(self) -> None:
        self._next = 0

    def alloc(self, count: int) -> range:
        """A fresh contiguous id range (monotone; never recycled)."""
        if count < 0:
            raise LegionError(f"cannot allocate {count} ids")
        start = self._next
        self._next += count
        return range(start, start + count)

    @property
    def high_water(self) -> int:
        """Total ids ever issued; the frame's row count."""
        return self._next


class StateFrame:
    """Parallel columns over a dense id space, plus per-class/host tallies.

    Seven columns (one entry per id):

    * ``klass``      -- class index (int32)
    * ``host``       -- host-slot index (int32)
    * ``state``      -- lifecycle band: BULK / PROMOTED (uint8)
    * ``value``      -- application state: the counter value (int64)
    * ``calls``      -- completed calls while in the bulk band (int64)
    * ``shed``       -- calls shed by the bulk admission limit (int64)
    * ``cache_epoch``-- binding-cache entry: the clone-pool epoch this
      component last bound against (int32; -1 = cold)

    Aggregates maintained incrementally by the kernels:

    * ``class_calls`` / ``class_sheds`` -- per-class tallies
    * ``host_occupancy`` -- live bulk rows per host slot
    """

    def __init__(self, n_classes: int, n_hosts: int) -> None:
        np = require_numpy("StateFrame")
        if n_classes < 1 or n_hosts < 1:
            raise LegionError(
                f"StateFrame needs >= 1 class and host, got {n_classes}/{n_hosts}"
            )
        self.np = np
        self.n_classes = int(n_classes)
        self.n_hosts = int(n_hosts)
        self.allocator = IdAllocator()
        size = 0
        self.klass = np.empty(size, dtype=np.int32)
        self.host = np.empty(size, dtype=np.int32)
        self.state = np.empty(size, dtype=np.uint8)
        self.value = np.empty(size, dtype=np.int64)
        self.calls = np.empty(size, dtype=np.int64)
        self.shed = np.empty(size, dtype=np.int64)
        self.cache_epoch = np.empty(size, dtype=np.int32)
        self.class_calls = np.zeros(self.n_classes, dtype=np.int64)
        self.class_sheds = np.zeros(self.n_classes, dtype=np.int64)
        self.host_occupancy = np.zeros(self.n_hosts, dtype=np.int64)

    # ------------------------------------------------------------------ sizing

    def __len__(self) -> int:
        return self.allocator.high_water

    @property
    def size(self) -> int:
        """Rows in the frame (== ids ever allocated; ids are monotone)."""
        return self.allocator.high_water

    def extend(self, count: int, klass, host):
        """Allocate ``count`` fresh rows; returns their id array.

        ``klass``/``host`` may be scalars or arrays of length ``count``;
        new rows start in the BULK band with zeroed state and a cold
        binding-cache entry.
        """
        np = self.np
        ids = self.allocator.alloc(count)
        new_size = self.allocator.high_water
        for name, fill in (
            ("klass", klass),
            ("host", host),
            ("state", BULK),
            ("value", 0),
            ("calls", 0),
            ("shed", 0),
            ("cache_epoch", -1),
        ):
            old = getattr(self, name)
            grown = np.empty(new_size, dtype=old.dtype)
            grown[: len(old)] = old
            grown[len(old) :] = fill
            setattr(self, name, grown)
        id_arr = np.arange(ids.start, ids.stop, dtype=np.int64)
        bad_class = (self.klass[id_arr] < 0) | (self.klass[id_arr] >= self.n_classes)
        bad_host = (self.host[id_arr] < 0) | (self.host[id_arr] >= self.n_hosts)
        if bool(bad_class.any()) or bool(bad_host.any()):
            raise LegionError("extend: class or host index out of range")
        np.add.at(self.host_occupancy, self.host[id_arr], 1)
        return id_arr

    # -------------------------------------------------------------- escalation

    def snapshot_row(self, i: int) -> Dict[str, int]:
        """A row's full column state, as plain ints (picklable)."""
        return {
            "id": int(i),
            "klass": int(self.klass[i]),
            "host": int(self.host[i]),
            "state": int(self.state[i]),
            "value": int(self.value[i]),
            "calls": int(self.calls[i]),
            "shed": int(self.shed[i]),
            "cache_epoch": int(self.cache_epoch[i]),
        }

    def promote(self, ids) -> List[Dict[str, int]]:
        """Move rows to the PROMOTED band; returns their state snapshots.

        The snapshots seed the rich-object twins (the escalation
        boundary's analogue of a magistrate restoring from an OPR).  The
        rows' ids stay allocated and their columns stay in place --
        frozen -- so ``demote`` can fold the rich state back onto the
        *same* id.  Host occupancy drops while promoted (the rich twin
        occupies a real process slot instead).
        """
        np = self.np
        id_arr = np.asarray(ids, dtype=np.int64)
        if id_arr.size == 0:
            return []
        if bool((self.state[id_arr] == PROMOTED).any()):
            raise LegionError("promote: row already promoted")
        snapshots = [self.snapshot_row(int(i)) for i in id_arr]
        self.state[id_arr] = PROMOTED
        np.add.at(self.host_occupancy, self.host[id_arr], -1)
        return snapshots

    def demote(self, i: int, value: int) -> None:
        """Fold a rich twin's state back onto row ``i`` (BULK again).

        ``value`` is the twin's application state.  The id is the same
        one ``promote`` snapshotted -- the allocator never recycled it in
        between (see :class:`IdAllocator`).
        """
        if int(self.state[i]) != PROMOTED:
            raise LegionError(f"demote: row {i} is not promoted")
        self.value[i] = int(value)
        self.state[i] = BULK
        self.host_occupancy[self.host[i]] += 1

    # --------------------------------------------------------------- reporting

    def band_histogram(self) -> Dict[str, int]:
        """Row counts per lifecycle band."""
        np = self.np
        counts = np.bincount(self.state, minlength=2)
        return {BAND_NAMES[band]: int(counts[band]) for band in (BULK, PROMOTED)}

    def value_checksum(self) -> int:
        """An order-sensitive digest of per-id application state.

        Weighting each value by a per-id coefficient makes the checksum
        sensitive to *which* id holds which value, not just the total --
        a swapped pair of rows changes it.  Computable identically by the
        per-agent reference machine (plain int arithmetic, no float).
        """
        np = self.np
        n = self.size
        if n == 0:
            return 0
        weights = (np.arange(n, dtype=np.int64) % 9973) + 1
        return int((self.value * weights % 2305843009213693951).sum() % 2305843009213693951)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<StateFrame rows={self.size} classes={self.n_classes} "
            f"hosts={self.n_hosts} bands={self.band_histogram()}>"
        )
