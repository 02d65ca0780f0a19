"""The per-agent reference machine: the frame kernels, one object at a time.

This is the differential twin of :class:`~repro.megascale.engine.BulkEngine`:
the same scenario semantics -- admission limit, shedding, escalation on
touch, idle demotion, the settlement identity --
implemented over plain Python dicts with an explicit per-object loop and
*no numpy anywhere*.  The property and differential tests drive both
machines with identical seeded inputs and assert the final states,
ledgers, and checksums are equal; the columnar backend is only trusted
where this twin proves it interchangeable.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import LegionError

_CHECKSUM_MOD = 2305843009213693951  # 2**61 - 1, matches StateFrame


@dataclass
class RefObject:
    """One rich-ish object: the per-agent unit of the reference machine."""

    klass: int
    host: int
    state: str = "bulk"  # bulk | promoted
    value: int = 0


@dataclass
class RefLedger:
    """Mirror of :class:`~repro.megascale.engine.EngineLedger`."""

    issued: int = 0
    bulk_completed: int = 0
    escalated_issued: int = 0
    escalated_completed: int = 0
    shed: int = 0
    promotions: int = 0
    demotions: int = 0

    def settled(self) -> bool:
        return (
            self.issued
            == self.bulk_completed + self.escalated_completed + self.shed
        )


class ReferenceMachine:
    """Per-agent twin of the columnar engine (see module docstring)."""

    def __init__(
        self,
        n_classes: int,
        n_hosts: int,
        hot_ids=(),
        per_tick_limit: Optional[int] = None,
        demote_after: int = 3,
    ) -> None:
        self.n_classes = n_classes
        self.n_hosts = n_hosts
        self.per_tick_limit = per_tick_limit
        self.demote_after = int(demote_after)
        self.objects: List[RefObject] = []
        self.hot = set(int(i) for i in hot_ids)
        self.class_calls = [0] * n_classes
        self.class_escalated = [0] * n_classes
        self.ledger = RefLedger()
        self._twins: Dict[int, int] = {}  # promoted id → twin value
        self._last_touch: Dict[int, int] = {}

    def extend(self, count: int, klass, host) -> List[int]:
        """Allocate rows exactly the way StateFrame.extend does."""
        start = len(self.objects)
        for j in range(count):
            k = klass[j] if hasattr(klass, "__getitem__") else klass
            h = host[j] if hasattr(host, "__getitem__") else host
            self.objects.append(RefObject(klass=int(k), host=int(h)))
        return list(range(start, start + count))

    # ------------------------------------------------------------------ kernels

    def tick(self, tick: int, targets) -> None:
        """One tick: identical semantics, one object at a time."""
        targets = [int(t) for t in targets]
        self.ledger.issued += len(targets)
        # Classification happens against the band state at tick start,
        # exactly like the engine's upfront mask.
        escalated = [
            t for t in targets if t in self.hot or self.objects[t].state != "bulk"
        ]
        bulk = [
            t for t in targets if not (t in self.hot or self.objects[t].state != "bulk")
        ]
        arrivals = Counter(bulk)
        for i, count in sorted(arrivals.items()):
            obj = self.objects[i]
            if self.per_tick_limit is not None:
                served = min(count, self.per_tick_limit)
            else:
                served = count
            obj.value += served
            self.class_calls[obj.klass] += served
            self.ledger.bulk_completed += served
            self.ledger.shed += count - served
        for t in escalated:
            self._escalated_call(t, tick)

    def _escalated_call(self, i: int, tick: int) -> None:
        obj = self.objects[i]
        if obj.state != "promoted":
            self._promote([i])
        self._last_touch[i] = tick
        self.ledger.escalated_issued += 1
        self._twins[i] += 1
        self.ledger.escalated_completed += 1
        self.class_calls[obj.klass] += 1
        self.class_escalated[obj.klass] += 1

    # --------------------------------------------------------------- promotion

    def _promote(self, ids: List[int]) -> None:
        for i in ids:
            obj = self.objects[i]
            if obj.state == "promoted":
                raise LegionError("promote: row already promoted")
            obj.state = "promoted"
            self._twins[i] = obj.value
        self.ledger.promotions += len(ids)

    def demote_idle(self, tick: int) -> int:
        idle = sorted(
            i
            for i, last in self._last_touch.items()
            if tick - last >= self.demote_after
        )
        for i in idle:
            self._demote(i)
        return len(idle)

    def demote_all(self) -> int:
        promoted = sorted(self._last_touch)
        for i in promoted:
            self._demote(i)
        return len(promoted)

    def _demote(self, i: int) -> None:
        obj = self.objects[i]
        obj.value = self._twins.pop(i)
        obj.state = "bulk"
        self._last_touch.pop(i, None)
        self.ledger.demotions += 1

    # --------------------------------------------------------------- reporting

    def value_checksum(self) -> int:
        total = 0
        for i, obj in enumerate(self.objects):
            total += obj.value * ((i % 9973) + 1) % _CHECKSUM_MOD
        return total % _CHECKSUM_MOD

    def band_histogram(self) -> Dict[str, int]:
        counts = Counter(obj.state for obj in self.objects)
        return {
            "bulk": counts.get("bulk", 0),
            "promoted": counts.get("promoted", 0),
        }

    def settled(self) -> bool:
        return self.ledger.settled()
