"""The per-host table of running Legion object processes.

A Host Object must know what is running on its host in order to reap dead
objects, report exceptions, and enforce capacity (section 2.3).  Each
entry pairs a LOID with the :class:`~repro.core.server.ObjectServer`
standing in for the object's process, plus resource accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import HostError
from repro.naming.loid import LOID


@dataclass
class ProcessEntry:
    """One running (or crashed-but-unreaped) object process."""

    loid: LOID
    server: object  # ObjectServer; typed loosely to avoid an import cycle
    started_at: float
    #: Written after :meth:`ProcessTable.add` only through
    #: :meth:`ProcessTable.set_cpu_share`, which keeps the CPU total.
    cpu_share: float = 1.0
    memory_bytes: int = 0
    #: Set when the process died abnormally; reaping reports and clears it.
    #: Written only by :meth:`ProcessTable.mark_crashed`, which keeps the
    #: table's live count and totals.
    exception: Optional[str] = None

    @property
    def crashed(self) -> bool:
        """Whether the process terminated abnormally and awaits reaping."""
        return self.exception is not None


class ProcessTable:
    """All processes on one host, keyed by LOID identity.

    ``live`` counts the non-crashed entries and ``total_memory`` and
    ``total_cpu_share`` sum their memory and CPU shares, so admission
    reads a host's population, memory and CPU load in O(1) instead of
    listing them.  The CPU total is a running float sum: it equals
    ``sum()`` over the live entries exactly while the shares are whole
    numbers, as the default share and the SPMD partition sizes are.
    """

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], ProcessEntry] = {}
        #: Entries not crashed: ``len(running())`` without the list.
        self.live = 0
        #: Sum of memory of live processes (the §3.9 memory accounting).
        self.total_memory = 0
        #: Sum of CPU shares of live processes (the §3.9 CPU-load limit).
        self.total_cpu_share = 0.0

    def add(self, entry: ProcessEntry) -> None:
        """Record a started process; a LOID runs at most once per host."""
        key = entry.loid.identity
        if key in self._entries:
            raise HostError(f"{entry.loid} already runs on this host")
        self._entries[key] = entry
        if entry.exception is None:
            self.live += 1
            self.total_memory += entry.memory_bytes
            self.total_cpu_share += entry.cpu_share

    def set_cpu_share(self, entry: ProcessEntry, share: float) -> None:
        """Change a recorded process's CPU share, keeping the total."""
        if entry.exception is None:
            self.total_cpu_share += share - entry.cpu_share
        entry.cpu_share = share

    def mark_crashed(self, entry: ProcessEntry, reason: str) -> None:
        """Record that ``entry``'s process died abnormally with ``reason``.

        The entry stays until reaped but no longer holds a slot; crashing
        it again only replaces the reason.
        """
        if entry.exception is None:
            self.live -= 1
            self.total_memory -= entry.memory_bytes
            self.total_cpu_share -= entry.cpu_share
        entry.exception = reason

    def get(self, loid: LOID) -> ProcessEntry:
        """The entry for ``loid``; raises :class:`HostError` if absent."""
        entry = self._entries.get(loid.identity)
        if entry is None:
            raise HostError(f"{loid} is not running on this host")
        return entry

    def find(self, loid: LOID) -> Optional[ProcessEntry]:
        """The entry for ``loid`` or None."""
        return self._entries.get(loid.identity)

    def remove(self, loid: LOID) -> ProcessEntry:
        """Drop and return the entry (process stopped or reaped)."""
        entry = self._entries.pop(loid.identity, None)
        if entry is None:
            raise HostError(f"{loid} is not running on this host")
        if entry.exception is None:
            self.live -= 1
            self.total_memory -= entry.memory_bytes
            self.total_cpu_share -= entry.cpu_share
        return entry

    def crashed_entries(self) -> List[ProcessEntry]:
        """Processes that died abnormally and await reaping."""
        return [e for e in self._entries.values() if e.crashed]

    def running(self) -> List[ProcessEntry]:
        """Live (non-crashed) processes."""
        return [e for e in self._entries.values() if not e.crashed]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, loid: LOID) -> bool:
        return loid.identity in self._entries

    def __iter__(self):
        return iter(list(self._entries.values()))
