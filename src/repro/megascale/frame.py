"""The columnar state table: dense component ids → numpy columns.

One :class:`StateFrame` holds the *bulk* population of a mega-scale
scenario -- millions of objects as parallel arrays instead of millions of
Python objects.  A row is one component: its class, its band flags and
its application state (a counter value) -- 13 bytes.
Transitions apply frame-at-once (vivarium-style): one tick is a handful
of vectorised operations over the rows it names (see
:mod:`repro.megascale.engine`), never a per-object callback.

Ids are *dense and monotone*: :class:`IdAllocator` hands out contiguous
ranges and never recycles an id within a run, so escalation/demotion
churn can never alias two logical objects onto one row -- trace and audit
identities stay stable (see ``tests/megascale/test_frame.py`` for the
regression pinning this).
"""

from __future__ import annotations

import math
import numbers
from typing import Dict, List

import numpy as np

from repro.errors import InvalidArgument, LegionError

#: The flag bits of a row's ``state`` byte.  A row with no bit set is
#: BULK and takes frame-at-once transitions.  PROMOTED is its lifecycle
#: band: the rich-object path owns the row and its columns are frozen
#: until demotion.  HOT marks a standing member of an engine's hot set;
#: it survives promote and demote.  Any set bit routes a call to the
#: rich path, so a tick routes with one gather.
BULK, PROMOTED, HOT = 0, 1, 2

#: Rows a frame may hold: the tick kernel sorts its ids as int32 keys.
MAX_ROWS = 2**31 - 1

BAND_NAMES = {BULK: "bulk", PROMOTED: "promoted"}


def check_int(owner: str, name: str, value, low: int, high: float) -> int:
    """``value`` as an int in ``[low, high)``, or InvalidArgument naming it.

    A bool, a float (NaN included) or any other non-integral value is
    refused, not truncated.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or not (
        low <= value < high
    ):
        raise InvalidArgument(f"{owner} {name}={value!r}: must be an int in [{low}, {high})")
    return int(value)


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
    """Parallel columns over a dense id space, plus per-class tallies.

    Three columns (one entry per id, 13 bytes a row):

    * ``klass``      -- class index (int32)
    * ``state``      -- band flags: PROMOTED and HOT bits (uint8)
    * ``value``      -- application state: the counter value (int64)

    Aggregates maintained incrementally by the kernels:

    * ``class_calls`` -- completed calls per class, bulk and escalated
    * ``class_escalated`` -- the escalated share of ``class_calls``
    """

    def __init__(self, n_classes: int, n_hosts: int) -> None:
        self.n_classes = check_int("StateFrame", "n_classes", n_classes, 1, math.inf)
        self.n_hosts = check_int("StateFrame", "n_hosts", n_hosts, 1, math.inf)
        self.allocator = IdAllocator()
        size = 0
        self.klass = np.empty(size, dtype=np.int32)
        self.state = np.empty(size, dtype=np.uint8)
        self.value = np.empty(size, dtype=np.int64)
        self.class_calls = np.zeros(self.n_classes, dtype=np.int64)
        self.class_escalated = np.zeros(self.n_classes, dtype=np.int64)

    # ------------------------------------------------------------------ sizing

    def __len__(self) -> int:
        return self.allocator.high_water

    @property
    def size(self) -> int:
        """Rows in the frame (== ids ever allocated; ids are monotone)."""
        return self.allocator.high_water

    def extend(self, count: int, klass, host):
        """Allocate ``count`` fresh rows; returns their id array.

        ``klass``/``host`` may be ints or integer arrays of length
        ``count``; new rows start BULK, not hot, with zeroed state.
        ``host`` is range-checked and not stored: no reader needs it.
        Every argument is checked before a row is allocated, so a
        refused extend leaves the frame as it was.
        """
        count = check_int("StateFrame.extend", "count", count, 0, math.inf)
        start = self.size
        if count > MAX_ROWS - start:
            raise InvalidArgument(
                f"StateFrame.extend count={count}: the frame holds {start} rows and "
                f"may hold at most {MAX_ROWS} (ids are int32 keys), so at most "
                f"{MAX_ROWS - start} more"
            )
        klass = self._index_arg("klass", klass, count, self.n_classes)
        self._index_arg("host", host, count, self.n_hosts)
        ids = self.allocator.alloc(count)
        for name, fill in (("klass", klass), ("state", BULK), ("value", 0)):
            old = getattr(self, name)
            grown = np.empty(ids.stop, dtype=old.dtype)
            grown[:start] = old
            grown[start:] = fill
            setattr(self, name, grown)
        return np.arange(ids.start, ids.stop, dtype=np.int64)

    def _index_arg(self, name: str, value, count: int, bound: int):
        """``value`` as an integer scalar or a length-``count`` integer
        array, every entry in ``[0, bound)``; InvalidArgument otherwise."""
        arr = np.asarray(value)
        if arr.dtype.kind not in "iu" or arr.shape not in ((), (count,)):
            raise InvalidArgument(
                f"StateFrame.extend {name}: must be an int or an integer array of "
                f"length {count}, got dtype {arr.dtype} shape {arr.shape}"
            )
        if arr.size and not (arr.min() >= 0 and arr.max() < bound):
            raise InvalidArgument(
                f"StateFrame.extend {name}: entries must be in [0, {bound}), "
                f"got [{arr.min()}, {arr.max()}]"
            )
        return arr

    # -------------------------------------------------------------- escalation

    def snapshot_row(self, i: int) -> Dict[str, int]:
        """A row's columns as plain ints (picklable); ``state`` is the
        band bit alone."""
        return {
            "id": int(i),
            "klass": int(self.klass[i]),
            "state": int(self.state[i]) & PROMOTED,
            "value": int(self.value[i]),
        }

    def promote(self, ids) -> List[Dict[str, int]]:
        """Move rows to the PROMOTED band; returns their state snapshots.

        The snapshots seed the rich-object twins (the escalation
        boundary's analogue of a magistrate restoring from an OPR).  The
        rows' ids stay allocated and their columns stay in place --
        frozen -- so ``demote`` can fold the rich state back onto the
        *same* id.  A row's HOT bit is left as it was.
        """
        id_arr = np.asarray(ids, dtype=np.int64)
        if id_arr.size == 0:
            return []
        if bool((self.state[id_arr] & PROMOTED).any()):
            raise LegionError("promote: row already promoted")
        snapshots = [self.snapshot_row(int(i)) for i in id_arr]
        self.state[id_arr] |= PROMOTED
        return snapshots

    def demote(self, i: int, value: int) -> None:
        """Fold a rich twin's state back onto row ``i`` (BULK again).

        ``value`` is the twin's application state.  The id is the same
        one ``promote`` snapshotted -- the allocator never recycled it in
        between (see :class:`IdAllocator`).  A row's HOT bit is left as
        it was.
        """
        flags = int(self.state[i])
        if not flags & PROMOTED:
            raise LegionError(f"demote: row {i} is not promoted")
        self.value[i] = int(value)
        self.state[i] = flags & ~PROMOTED

    # --------------------------------------------------------------- reporting

    def band_histogram(self) -> Dict[str, int]:
        """Row counts per lifecycle band (the PROMOTED bit alone)."""
        counts = np.bincount(self.state & PROMOTED, minlength=2)
        return {BAND_NAMES[band]: int(counts[band]) for band in (BULK, PROMOTED)}

    def value_checksum(self) -> int:
        """An order-sensitive digest of per-id application state.

        Weighting each value by a per-id coefficient makes the checksum
        sensitive to *which* id holds which value, not just the total --
        a swapped pair of rows changes it.  Computable identically by the
        per-agent reference machine (plain int arithmetic, no float).
        """
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
