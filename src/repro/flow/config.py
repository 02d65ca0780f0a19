"""FlowConfig: the single knob bundle of the flow-control subsystem.

Section 5's distributed-systems principle -- the number of requests to
any single component must not grow with system size -- is enforced
*structurally* by combining trees, caches and clones.  FlowConfig adds
the *dynamic* half: what happens when offered load exceeds a component's
capacity anyway.  Two cooperating mechanisms, both off by default:

* **admission control** (``capacity``/``queue_limit``): every
  ObjectServer of an admitted kind dispatches at most ``capacity``
  requests concurrently and queues at most ``queue_limit`` more; the
  rest are shed with a first-class :class:`~repro.errors.Overloaded`
  reply carrying a ``retry_after`` pushback hint.
* **credit-based backpressure** (``credit_window``): callers hold
  per-(LOID identity, address element) credit windows replenished by
  replies, bounding in-flight work toward any one component end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.metrics.counters import ComponentKind


@dataclass(frozen=True)
class FlowConfig:
    """Immutable flow-control settings, shared via ``SystemServices.flow``."""

    #: Max concurrently-dispatched requests per ObjectServer; ``None``
    #: disables admission control entirely.
    capacity: Optional[int] = None
    #: Bounded wait queue behind the capacity; 0 = shed on a full server.
    queue_limit: int = 0
    #: Estimated per-request service time (simulated ms); drives the
    #: ``retry_after`` pushback hint and the hopeless-deadline check.
    service_estimate: float = 1.0
    #: Component kinds admission control applies to; ``None`` = all kinds.
    #: Experiments typically restrict it to ``{ComponentKind.APPLICATION}``
    #: so bootstrap and infrastructure traffic stay unthrottled.
    admit_kinds: Optional[FrozenSet[ComponentKind]] = None
    #: Caller-side credits per (LOID identity, address element); ``None``
    #: disables credit windows.
    credit_window: Optional[int] = None

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1 (or None to disable)")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if self.service_estimate <= 0.0:
            raise ValueError("service_estimate must be > 0")
        if self.credit_window is not None and self.credit_window < 1:
            raise ValueError("credit_window must be >= 1 (or None to disable)")

    def admits(self, kind: ComponentKind) -> bool:
        """True when admission control governs servers of ``kind``."""
        if self.capacity is None:
            return False
        return self.admit_kinds is None or kind in self.admit_kinds
