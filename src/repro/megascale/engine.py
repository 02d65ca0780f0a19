"""Frame-at-once transition kernels plus the escalation boundary.

:class:`BulkEngine` drives a :class:`~repro.megascale.frame.StateFrame`
through ticks: each tick takes the whole tick's call targets as one array
and applies them with a handful of vectorised operations (count the
arrivals per id, clip at the admission limit, add the serves, tally per
class).  No per-object Python runs for the bulk population --
that is the entire point.

The kernel routes a tick's targets with one gather of the frame's band
flags, sorts its bulk targets in place as int32 keys and reads each id's
arrivals off the run starts -- ``ReferenceMachine.tick``'s
``Counter(bulk)`` loop, vectorised: O(k log k) in the tick's ``k`` bulk
targets, nothing proportional to the population, so a tick pays for what
it touches.  Each temporary is released once it has been read.

The *escalation boundary* is where the bulk world meets the rich-object
path.  Any id the scenario actually touches -- a call on a designated
"interesting" id -- is promoted out of the frame: its columns are
snapshotted, a rich twin takes over,
and subsequent calls to it run through the ordinary per-object machinery.
When it goes quiet it is demoted back: the twin's state folds onto the
*same* dense id (the allocator never recycles ids, so trace identities
survive the round trip).

The boundary is pluggable.  With ``boundary=None`` the engine carries
twins as plain per-id Python dicts -- the smallest possible rich-object
path, used by the reference/differential tests.  The live boundary in
:mod:`repro.megascale.scenario` backs each twin with a real Legion object
and routes escalated calls through ``runtime.invoke``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.errors import InvalidArgument
from repro.megascale.frame import BULK, HOT, PROMOTED, StateFrame, check_int


@dataclass
class TickOutcome:
    """One tick's accounting (all logical calls, not wire messages)."""

    tick: int
    issued: int = 0
    bulk_served: int = 0
    escalated: int = 0
    shed: int = 0


@dataclass
class EngineLedger:
    """Cumulative settlement ledger for one engine run.

    The identity mirrors the runtime's: every issued logical call must be
    accounted for -- served frame-at-once, served by a rich twin after
    escalation, or shed at the bulk admission limit.
    """

    issued: int = 0
    bulk_completed: int = 0
    escalated_issued: int = 0
    escalated_completed: int = 0
    shed: int = 0
    promotions: int = 0
    demotions: int = 0

    def settled(self) -> bool:
        """issued == bulk + escalated + shed, with no escalation pending."""
        return (
            self.issued
            == self.bulk_completed + self.escalated_completed + self.shed
            and self.escalated_issued == self.escalated_completed
        )


class BulkEngine:
    """Vectorised transitions for the bulk band + the escalation boundary.

    ``hot_ids`` are the scenario's standing "interesting set": calls to
    them always escalate; each is an int in ``[0, frame.size)``, and the
    engine sets its row's HOT bit in the frame.
    ``per_tick_limit`` (None, or an int >= 0) caps how many calls one
    bulk row admits per tick; the excess is shed (and tallied -- the
    settlement identity keeps its ``+ shed`` term).  A promoted twin
    folds back once ``demote_after`` ticks (an int >= 0) pass without a
    call to it.
    """

    def __init__(
        self,
        frame: StateFrame,
        hot_ids=(),
        per_tick_limit: Optional[int] = None,
        boundary=None,
        demote_after: int = 3,
    ) -> None:
        self.frame = frame
        self.boundary = boundary
        if per_tick_limit is not None:
            per_tick_limit = check_int(
                "BulkEngine", "per_tick_limit", per_tick_limit, 0, math.inf
            )
        self.per_tick_limit = per_tick_limit
        self.demote_after = check_int("BulkEngine", "demote_after", demote_after, 0, math.inf)
        self.ledger = EngineLedger()
        for i in hot_ids:
            frame.state[check_int("BulkEngine", "hot id", i, 0, frame.size)] |= HOT
        #: promoted id → last tick a call touched it (drives demotion).
        self._last_touch: Dict[int, int] = {}
        #: promoted id → escalated calls issued and not yet settled; a
        #: twin is never folded back with one outstanding, or the frame
        #: would lose the value the late reply carries.
        self._in_flight: Dict[int, int] = {}
        #: promoted id → dict twin (only when no live boundary is set).
        self._twins: Dict[int, Dict[str, int]] = {}

    # ------------------------------------------------------------------ kernels

    def tick(self, tick: int, targets) -> TickOutcome:
        """Apply one tick's calls: bulk frame-at-once, the rest escalated.

        ``targets`` is a 1-D sequence of integer ids.  Everything is
        validated before anything is counted, so a rejected tick leaves
        the frame and the ledger as they were.
        """
        frame = self.frame
        t = np.asarray(targets)
        if t.ndim != 1:
            raise InvalidArgument(
                f"tick: targets must be a 1-D sequence of ids, got shape {t.shape}"
            )
        if t.size == 0:
            return TickOutcome(tick=tick)
        if t.dtype.kind not in "iu":
            raise InvalidArgument(
                f"tick: targets must be integer ids, got dtype {t.dtype}"
            )
        low, high = int(t.min()), int(t.max())
        if low < 0 or high >= frame.size:
            raise InvalidArgument(
                f"tick: target id {low if low < 0 else high} out of range "
                f"[0, {frame.size})"
            )
        t = t.astype(np.intp, copy=False)

        out = TickOutcome(tick=tick, issued=int(t.size))
        self.ledger.issued += out.issued
        bulk = frame.state[t] == BULK
        keys = t[bulk].astype(np.int32)  # ids < MAX_ROWS: extend refuses more
        esc_targets = t[np.logical_not(bulk, out=bulk)]
        del bulk

        # --- the bulk band: sort the keys, count each run, update the rows
        # it names (``ids`` are distinct, which makes ``add.at`` exact).
        # ``bounds`` holds each run's start, then ``k``: the sentinel edge
        # gives the last run its length without a concatenate.
        k = keys.size
        if k:
            keys.sort()
            edge = np.empty(k + 1, dtype=bool)
            edge[0] = edge[k] = True
            np.not_equal(keys[1:], keys[:-1], out=edge[1:k])
            bounds = edge.nonzero()[0]
            del edge
            ids = keys[bounds[:-1]].astype(np.intp)
            del keys
            arrivals = bounds[1:] - bounds[:-1]
            del bounds
            if self.per_tick_limit is not None:
                served = np.minimum(arrivals, self.per_tick_limit, out=arrivals)
            else:
                served = arrivals
            np.add.at(frame.value, ids, served)
            np.add.at(frame.class_calls, frame.klass[ids], served)
            out.bulk_served = int(served.sum())
            out.shed = k - out.bulk_served
            self.ledger.bulk_completed += out.bulk_served
            self.ledger.shed += out.shed

        # --- the escalated set: promote on first touch, then call rich.
        for i in esc_targets.tolist():
            self._escalated_call(int(i), tick)
        out.escalated = int(esc_targets.size)
        return out

    def _escalated_call(self, i: int, tick: int) -> None:
        """Route one call through the rich-object path (promoting first)."""
        if not self.frame.state[i] & PROMOTED:
            self._promote([i])
        self._last_touch[i] = tick
        self._in_flight[i] += 1
        self.ledger.escalated_issued += 1
        if self.boundary is not None:
            self.boundary.call(i)
        else:
            twin = self._twins[i]
            twin["value"] += 1
            self.note_escalated_done(i)

    def note_escalated_done(self, i: int) -> None:
        """One escalated call settled on the rich side; close the ledger."""
        self._in_flight[i] -= 1
        self.ledger.escalated_completed += 1
        k = int(self.frame.klass[i])
        self.frame.class_calls[k] += 1
        self.frame.class_escalated[k] += 1

    # --------------------------------------------------------------- promotion

    def _promote(self, ids: List[int]) -> None:
        snapshots = self.frame.promote(ids)
        for i in ids:
            self._in_flight[i] = 0
        self.ledger.promotions += len(snapshots)
        if self.boundary is not None:
            self.boundary.promote(snapshots)
        else:
            for snap in snapshots:
                self._twins[snap["id"]] = {"value": snap["value"]}

    def demote_idle(self, tick: int) -> int:
        """Fold quiet twins back into the frame; returns how many."""
        idle = sorted(
            i
            for i, last in self._last_touch.items()
            if tick - last >= self.demote_after and not self._in_flight[i]
        )
        for i in idle:
            self._demote(i)
        return len(idle)

    def demote_all(self) -> int:
        """End-of-run drain: every twin folds back (reporting needs it)."""
        promoted = sorted(self._last_touch)
        for i in promoted:
            self._demote(i)
        return len(promoted)

    def _demote(self, i: int) -> None:
        if self.boundary is not None:
            value = self.boundary.demote(i)
        else:
            value = self._twins.pop(i)["value"]
        self.frame.demote(i, value=value)
        self._last_touch.pop(i, None)
        self.ledger.demotions += 1

    # --------------------------------------------------------------- reporting

    def settled(self) -> bool:
        """The engine-side settlement identity (shed term included)."""
        return self.ledger.settled()
