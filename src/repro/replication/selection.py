"""Locality-aware replica selection for replicated Object Addresses.

The paper's scalability argument (section 5.2) assumes "most accesses
will be local"; the data plane makes that true for *replicated* objects
by trying a FIRST group's elements nearest-first.  Nearness is the
``repro/net`` link class of (caller host, replica host): same-host
before same-site before wide-area.  The sort is stable, so replicas at
equal distance keep their group order and every run stays deterministic.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.net.latency import LatencyModel, LinkClass

#: Preference order of link classes: lower rank is tried first.
LINK_RANK: Dict[LinkClass, int] = {
    LinkClass.SAME_HOST: 0,
    LinkClass.SAME_SITE: 1,
    LinkClass.WIDE_AREA: 2,
}


class LocalitySelector:
    """Orders a replica group nearest-first from a given source host.

    Every runtime shares the directory's one instance
    (:meth:`~repro.replication.directory.ReplicaDirectory.nearest_first`);
    ``order`` is a pure function of its arguments, so sharing is safe.  A tiny
    per-(src, group) memo keeps the warm path at one dict hit -- group
    tuples are immutable and hosts never change sites mid-run.
    """

    __slots__ = ("latency", "_memo")

    def __init__(self, latency: LatencyModel) -> None:
        self.latency = latency
        self._memo: Dict[Tuple[int, tuple], tuple] = {}

    def order(self, src_host: int, elements: tuple) -> tuple:
        """``elements`` stably sorted by link rank from ``src_host``."""
        key = (src_host, elements)
        ordered = self._memo.get(key)
        if ordered is None:
            classify = self.latency.classify
            ordered = tuple(
                sorted(
                    elements,
                    key=lambda e: LINK_RANK[classify(src_host, e.host)],
                )
            )
            self._memo[key] = ordered
        return ordered
