"""FaultLog: injected incidents vs. the recovery layer's observations."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Tuple


class FaultIncident(NamedTuple):
    """One timestamped incident, injected or observed."""

    time: float
    kind: str
    target: str
    detail: str


@dataclass
class FaultLog:
    """Two ledgers: what the ChaosDriver did, what recovery noticed.

    The driver appends to ``injected`` ("host-crash", "object-lost", ...);
    magistrates append to ``observed`` ("object-demoted",
    "object-recovered") via ``services.fault_log``.  Experiments reconcile
    the two: every lost object must eventually appear as recovered, and
    the pairing yields the time-to-recover distribution.
    """

    injected: List[FaultIncident] = field(default_factory=list)
    observed: List[FaultIncident] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._counts = Counter(i.kind for i in self.injected + self.observed)

    def inject(self, time: float, kind: str, target: str, detail: str = "") -> None:
        """Record an incident the driver caused."""
        self.injected.append(FaultIncident(time, kind, target, detail))
        self._counts[kind] += 1

    def observe(self, time: float, kind: str, target: str, detail: str = "") -> None:
        """Record an incident the system noticed/repaired."""
        self.observed.append(FaultIncident(time, kind, target, detail))
        self._counts[kind] += 1

    def count(self, kind: str) -> int:
        """Incidents of ``kind`` so far, in O(1).  The two ledgers use
        disjoint kinds ("request-shed" is only ever observed)."""
        return self._counts[kind]

    # ------------------------------------------------------------- reconciliation

    def lost_objects(self) -> List[str]:
        """Targets of every injected object loss (crash or host loss)."""
        return [
            i.target
            for i in self.injected
            if i.kind in ("object-lost", "object-crash")
        ]

    def recovered_objects(self) -> List[str]:
        """Targets of every observed recovery."""
        return [i.target for i in self.observed if i.kind == "object-recovered"]

    def recovery_times(self) -> List[Tuple[str, float]]:
        """(object, latency) per recovery, paired with the latest earlier loss.

        An object can be lost and recovered several times; each recovery
        pairs with the most recent loss of the same target that precedes
        it.
        """
        out: List[Tuple[str, float]] = []
        for rec in self.observed:
            if rec.kind != "object-recovered":
                continue
            best = None
            for inj in self.injected:
                if inj.target != rec.target or inj.kind not in (
                    "object-lost",
                    "object-crash",
                ):
                    continue
                if inj.time <= rec.time and (best is None or inj.time > best):
                    best = inj.time
            if best is not None:
                out.append((rec.target, rec.time - best))
        return out

    def summary(self) -> Dict[str, Any]:
        """Aggregate view for reports and checks."""
        times = [t for _obj, t in self.recovery_times()]
        inj_by_kind: Dict[str, int] = {}
        for i in self.injected:
            inj_by_kind[i.kind] = inj_by_kind.get(i.kind, 0) + 1
        return {
            "injected": len(self.injected),
            "injected_by_kind": inj_by_kind,
            "observed": len(self.observed),
            "objects_lost": len(set(self.lost_objects())),
            "objects_recovered": len(set(self.recovered_objects())),
            "recoveries": len(times),
            "recovery_time_mean": sum(times) / len(times) if times else 0.0,
            "recovery_time_max": max(times) if times else 0.0,
        }

    def to_json(self) -> Dict[str, Any]:
        """A JSON-serialisable dump (the CI artifact)."""
        def row(i: FaultIncident) -> Dict[str, Any]:
            return {
                "time": round(i.time, 6),
                "kind": i.kind,
                "target": i.target,
                "detail": i.detail,
            }

        return {
            "summary": self.summary(),
            "injected": [row(i) for i in self.injected],
            "observed": [row(i) for i in self.observed],
        }
