"""FaultPlan: a seeded, simulated-time schedule of fault events."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

from repro.errors import InvalidArgument


class FaultKind(enum.Enum):
    """The fault taxonomy (see DESIGN.md section 4d)."""

    #: Every resident process dies, every endpoint on the host vanishes.
    HOST_CRASH = "host-crash"
    #: One object's process dies; its host survives.
    OBJECT_CRASH = "object-crash"
    #: A link class silently drops a fraction of messages for a while.
    LINK_DEGRADE = "link-degrade"
    #: Two sites cannot exchange messages until the partition heals.
    PARTITION = "partition"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``target`` depends on the kind: a host id (HOST_CRASH), an object key
    into the driver's target table (OBJECT_CRASH), a
    :class:`~repro.net.latency.LinkClass` value string (LINK_DEGRADE), or
    an (site, site) pair joined with ``|`` (PARTITION).  ``duration`` and
    ``severity`` (a LINK_DEGRADE's drop probability) only apply to the
    transient kinds.  ``time`` and ``duration`` are finite and >= 0;
    ``severity`` is in [0, 1].
    """

    time: float
    kind: FaultKind
    target: str
    duration: float = 0.0
    severity: float = 0.0

    def __post_init__(self) -> None:
        # Chained comparisons, which NaN fails too.
        for name, value in (("time", self.time), ("duration", self.duration)):
            if not 0.0 <= value < math.inf:
                raise InvalidArgument(f"FaultEvent {name}={value!r}: must be in [0, inf)")
        if not 0.0 <= self.severity <= 1.0:
            raise InvalidArgument(
                f"FaultEvent severity={self.severity!r}: must be in [0, 1]"
            )


#: The link classes a LINK_DEGRADE may hit (LinkClass value strings).
LINK_CLASSES = ("same-site", "wide-area")

#: Default probability mix over fault kinds.
DEFAULT_MIX: Dict[FaultKind, float] = {
    FaultKind.HOST_CRASH: 0.4,
    FaultKind.OBJECT_CRASH: 0.3,
    FaultKind.LINK_DEGRADE: 0.15,
    FaultKind.PARTITION: 0.15,
}


@dataclass
class FaultPlan:
    """An ordered fault schedule, generated once from a seeded RNG.

    The plan is pure data: generating it draws every random number up
    front, so applying it (ChaosDriver) adds no RNG consumption of its
    own and two runs with the same seed see byte-identical chaos.
    """

    events: List[FaultEvent] = field(default_factory=list)

    @classmethod
    def generate(
        cls,
        rng,
        horizon: float,
        intensity: float,
        hosts: Sequence[int],
        sites: Sequence[str],
        objects: Sequence[str],
        mix: Optional[Dict[FaultKind, float]] = None,
    ) -> "FaultPlan":
        """Draw a plan: ~``intensity`` events per 1000 time units, Poisson
        gaps, over ``horizon`` time units.

        ``hosts`` are crashable host ids (each crashes at most once; when
        exhausted, would-be host crashes become object crashes).
        ``objects`` are keys the driver can map to live objects.  Empty
        target pools disable the corresponding kinds.
        """
        if intensity <= 0.0 or horizon <= 0.0:
            return cls()
        weights = dict(mix or DEFAULT_MIX)
        if not hosts:
            weights.pop(FaultKind.HOST_CRASH, None)
        if not objects:
            weights.pop(FaultKind.OBJECT_CRASH, None)
        if len(sites) < 2:
            weights.pop(FaultKind.PARTITION, None)
        if not weights:
            return cls()
        kinds = sorted(weights, key=attrgetter("value"))
        totals = sum(map(weights.__getitem__, kinds))
        mean_gap = 1000.0 / intensity
        crashable = list(hosts)
        events: List[FaultEvent] = []
        t = rng.expovariate(1.0 / mean_gap)
        while t < horizon:
            pick = rng.random() * totals
            kind = kinds[-1]
            for candidate in kinds:
                pick -= weights[candidate]
                if pick < 0.0:
                    kind = candidate
                    break
            if kind is FaultKind.HOST_CRASH and not crashable:
                kind = FaultKind.OBJECT_CRASH if objects else FaultKind.LINK_DEGRADE
            if kind is FaultKind.HOST_CRASH:
                host = crashable.pop(rng.randrange(len(crashable)))
                events.append(FaultEvent(time=t, kind=kind, target=str(host)))
            elif kind is FaultKind.OBJECT_CRASH:
                target = objects[rng.randrange(len(objects))]
                events.append(FaultEvent(time=t, kind=kind, target=target))
            elif kind is FaultKind.LINK_DEGRADE:
                link = LINK_CLASSES[rng.randrange(len(LINK_CLASSES))]
                events.append(
                    FaultEvent(
                        time=t,
                        kind=kind,
                        target=link,
                        duration=rng.uniform(50.0, 200.0),
                        severity=rng.uniform(0.05, 0.3),
                    )
                )
            else:  # PARTITION
                i = rng.randrange(len(sites))
                j = rng.randrange(len(sites) - 1)
                if j >= i:
                    j += 1
                events.append(
                    FaultEvent(
                        time=t,
                        kind=FaultKind.PARTITION,
                        target=f"{sites[i]}|{sites[j]}",
                        duration=rng.uniform(50.0, 200.0),
                    )
                )
            t += rng.expovariate(1.0 / mean_gap)
        return cls(events=events)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)
