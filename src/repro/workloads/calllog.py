"""One call log per traffic driver, held as columns.

Every driver -- closed loop, open loop, scenario replay -- writes the
calls it issues into one :class:`CallLog`: per row the issue and settle
times (float64 simulated ms) and an outcome byte (an index into
``OUTCOMES``; 0, ``pending``, until the call settles).  What a call was
(its request kind) and which phase it belongs to are codes into the
log's ``kind_names`` and ``phase_names``.

A replay's log is indexed by the compiled stream's request rows: the
stream already holds each request's kind and its session's phase, so
the log only adds the three columns above and ``order``, an int32 column
naming the row the n-th issued call wrote -- about 21 bytes a request,
allocated once at ``plan.requests`` rows; a replay writes it by
subscript (``log.issue[row] = now``).  Any other log (open and closed
loops) writes rows in issue order through :meth:`CallLog.append`, so it
needs no ``order``; it keeps its own kind (and, if it has phases, phase)
code columns and doubles every column when it fills.

The log is its driver's only call counter: a row not yet settled (or,
in a replay log, not yet issued) reads ``pending``.  Readers summarise
the columns with numpy, or iterate the log: ``iter(log)`` yields one
light :class:`Call` view per issued call, in issue order.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

#: What the ``outcome`` byte means; 0 is a call not yet settled.
OUTCOMES = ("pending", "ok", "shed", "denied", "failed")
PENDING, OK, SHED, DENIED, FAILED = range(len(OUTCOMES))

#: The order outcome tallies are reported in.
REPORTED = ("ok", "shed", "denied", "failed", "pending")

#: Rows a growing log starts with (it doubles when full).
FIRST_ROWS = 256


class CallLog:
    """The calls one driver issued (see the module docstring).

    ``n`` calls have been issued; a growing log has room for
    ``capacity`` before :meth:`grow`.  ``stream`` is the compiled
    :class:`~repro.scenarios.events.ScenarioStream` a replay log is
    indexed by (its ``kind`` column is the stream's), else None.
    """

    __slots__ = (
        "issue", "done", "outcome", "order", "kind", "phase",
        "kind_names", "phase_names", "codes", "stream", "n", "capacity",
    )

    def __init__(self, kind_names: Sequence[str], phase_names: Optional[Sequence[str]]) -> None:
        """A growing log whose calls take kinds from ``kind_names`` (more
        may be added) and, if ``phase_names`` is given, phases from it."""
        rows = FIRST_ROWS
        self.issue = np.empty(rows)
        self.done = np.empty(rows)
        self.outcome = np.zeros(rows, dtype=np.uint8)
        self.order = None
        self.kind = np.zeros(rows, dtype=np.uint8)
        self.phase = None if phase_names is None else np.zeros(
            rows, dtype=np.min_scalar_type(len(phase_names))
        )
        self.kind_names: List[str] = list(kind_names)
        self.phase_names = None if phase_names is None else tuple(phase_names)
        self.codes = {name: code for code, name in enumerate(self.kind_names)}
        self.stream = None
        self.n = 0
        self.capacity = rows

    @classmethod
    def of_stream(cls, plan) -> "CallLog":
        """A replay log: one row per request of the compiled ``plan``."""
        log = cls.__new__(cls)
        rows = plan.requests
        log.issue = np.empty(rows)
        log.done = np.empty(rows)
        log.outcome = np.zeros(rows, dtype=np.uint8)
        log.order = np.empty(rows, dtype=np.int32)
        log.kind = plan.kind
        log.phase = None
        log.kind_names = plan.kind_names
        log.phase_names = plan.phase_names
        log.codes = None
        log.stream = plan
        log.n = 0
        log.capacity = rows
        return log

    # -- writing -----------------------------------------------------------------

    def grow(self) -> None:
        """Double a growing log's columns, keeping its rows."""
        n, self.capacity = self.n, 2 * self.capacity
        for name in ("issue", "done", "outcome", "kind", "phase"):
            old = getattr(self, name)
            if old is not None:
                new = np.zeros(self.capacity, dtype=old.dtype)
                new[:n] = old[:n]
                setattr(self, name, new)

    def append(self, issue: float, kind: str, phase: Optional[int]) -> int:
        """Write a growing log's next row -- a call of ``kind`` issued at
        ``issue``, in phase code ``phase`` (None without phases) -- and
        return it; the caller settles it by subscript."""
        row = self.n
        if row == self.capacity:
            self.grow()
        self.n = row + 1
        self.issue[row] = issue
        try:
            self.kind[row] = self.codes[kind]
        except KeyError:
            self.kind[row] = self.codes[kind] = len(self.kind_names)
            self.kind_names.append(kind)
        if phase is not None:
            self.phase[row] = phase
        return row

    # -- reading -----------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator["Call"]:
        rows = range(self.n) if self.order is None else self.order[: self.n]
        return (Call(self, row) for row in rows)

    def rows(self):
        """The issued rows, in issue order: an index into every column."""
        return slice(0, self.n) if self.order is None else self.order[: self.n]

    def phase_codes(self, rows):
        """The phase code of each of ``rows`` (None without phases)."""
        if self.stream is None:
            return None if self.phase is None else self.phase[rows]
        stream = self.stream
        session = stream.first.searchsorted(rows, "right") - 1
        return stream.phase[stream.start.searchsorted(session, "right") - 1]

    def outcome_counts(self) -> Dict[str, int]:
        """Issued calls per outcome, keyed in ``REPORTED`` order."""
        return tally(self.outcome[self.rows()])

    def ok_times(self):
        """``(issue, done)`` arrays of the calls that settled ``ok``, in
        issue order."""
        rows = self.rows()
        ok = self.outcome[rows] == OK
        return self.issue[rows][ok], self.done[rows][ok]


class Call:
    """One logged call, read from its log's columns when asked.

    ``issue``, ``done`` (None while pending), ``outcome``, ``phase``
    (None outside a phased log) and ``kind`` read by attribute or by key
    (``call["done"]``); any other key raises ``KeyError``.
    """

    __slots__ = ("log", "row")

    def __init__(self, log: CallLog, row: int) -> None:
        self.log = log
        self.row = row

    def __getitem__(self, key: str):
        log, row = self.log, self.row
        if key == "issue":
            return log.issue.item(row)
        if key == "done":
            return log.done.item(row) if log.outcome[row] else None
        if key == "outcome":
            return OUTCOMES[log.outcome[row]]
        if key == "kind":
            return log.kind_names[log.kind[row]]
        if key == "phase":
            code = log.phase_codes(row)
            return None if code is None else log.phase_names[code]
        raise KeyError(key)

    def __getattr__(self, name: str):
        try:
            return self[name]
        except KeyError:
            raise AttributeError(name) from None


def tally(outcomes: np.ndarray) -> Dict[str, int]:
    """Counts of the outcome codes ``outcomes``, keyed in ``REPORTED`` order."""
    counts = np.bincount(outcomes, minlength=len(OUTCOMES)).tolist()
    return {name: counts[OUTCOMES.index(name)] for name in REPORTED}


def first_seen(codes: np.ndarray) -> List[int]:
    """The distinct values of ``codes`` in order of first appearance."""
    values, first = np.unique(codes, return_index=True)
    return values[np.argsort(first)].tolist()
