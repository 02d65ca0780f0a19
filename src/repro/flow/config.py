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

import math
from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.errors import InvalidArgument
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
        # Chained comparisons, which NaN fails too.
        if self.capacity is not None and not 1 <= self.capacity < math.inf:
            raise InvalidArgument(
                f"FlowConfig capacity={self.capacity!r}: must be in [1, inf) or None"
            )
        if not 0 <= self.queue_limit < math.inf:
            raise InvalidArgument(
                f"FlowConfig queue_limit={self.queue_limit!r}: must be in [0, inf)"
            )
        if not 0.0 < self.service_estimate < math.inf:
            raise InvalidArgument(
                f"FlowConfig service_estimate={self.service_estimate!r}: must be in (0, inf)"
            )
        if self.credit_window is not None and not 1 <= self.credit_window < math.inf:
            raise InvalidArgument(
                f"FlowConfig credit_window={self.credit_window!r}: must be in [1, inf) or None"
            )

    def admits(self, kind: ComponentKind) -> bool:
        """True when admission control governs servers of ``kind``."""
        if self.capacity is None:
            return False
        return self.admit_kinds is None or kind in self.admit_kinds
