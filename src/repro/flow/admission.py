"""Admission control: bounded per-ObjectServer queues with shedding.

"The number of requests made to any single component of the system
cannot be allowed to grow unreasonably with the size of the system"
(paper section 5).  The combining tree bounds *who* sends requests;
admission control bounds *how many are in the building at once*: a
server of an admitted component kind dispatches at most ``capacity``
requests concurrently, queues at most ``queue_limit`` more, and sheds
the rest with a first-class :class:`~repro.errors.Overloaded` reply.

Shedding is deadline- and priority-aware:

* a request whose caller deadline cannot be met even if everything ahead
  of it drains on schedule is shed immediately (serving it would produce
  a corpse the caller already gave up on);
* when the queue is full, a higher-priority arrival evicts the
  worst-priority waiter instead of being dropped itself.

Every shed reply carries a server-computed ``retry_after`` hint -- the
backlog drained at the configured service estimate -- so honest callers
(see :class:`~repro.core.runtime.RetryPolicy`) pace their retries to
when admission is actually plausible, instead of hammering the queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.net.message import Message


@dataclass
class AdmissionStats:
    """Per-server admission counters."""

    admitted: int = 0
    queued: int = 0
    #: reason → requests shed ("capacity", "deadline", "evicted", "paused").
    shed: Dict[str, int] = field(default_factory=dict)


class AdmissionController:
    """The bounded queue in front of one ObjectServer's dispatch loop."""

    __slots__ = ("server", "config", "waiting", "stats", "paused", "_pumping")

    def __init__(self, server, config) -> None:
        self.server = server
        self.config = config
        #: FIFO of REQUEST messages waiting for a dispatch slot.
        self.waiting: List[Message] = []
        self.stats = AdmissionStats()
        #: Failed-band switch (repro.health): a paused server sheds every
        #: new arrival with reason "paused" (already-queued work drains).
        self.paused = False
        #: Reentrancy guard: dispatching a synchronous method replies (and
        #: pumps) before the outer pump loop's iteration finishes.
        self._pumping = False

    # ------------------------------------------------------------------ intake

    def arrive(self, message: Message) -> None:
        """Admit, queue, or shed one incoming REQUEST message."""
        if self.paused:
            self._shed(message, "paused")
            return
        server = self.server
        config = self.config
        if not self.waiting and server.in_flight < config.capacity:
            self.stats.admitted += 1
            server._dispatch(message)
            return
        payload = message.payload
        if payload.deadline is not None:
            now = server.services.kernel.now
            wait = (self.backlog + 1) * config.service_estimate / config.capacity
            if now + wait > payload.deadline:
                self._shed(message, "deadline")
                return
        if len(self.waiting) >= config.queue_limit:
            victim = self._eviction_index(payload.priority)
            if victim is None:
                self._shed(message, "capacity")
                return
            self._shed(self.waiting.pop(victim), "evicted")
        # Every completion pumps, so a non-empty queue means a full server:
        # the new waiter's turn comes with the next reply.
        self.waiting.append(message)
        self.stats.queued += 1

    # ------------------------------------------------------------------- drain

    def pump(self) -> None:
        """Dispatch eligible waiters; called after every completion."""
        if self._pumping:
            return
        self._pumping = True
        try:
            server = self.server
            config = self.config
            while self.waiting and server.in_flight < config.capacity:
                index = self._next_index()
                message = self.waiting[index]
                del self.waiting[index]
                deadline = message.payload.deadline
                if deadline is not None:
                    now = server.services.kernel.now
                    if now + config.service_estimate > deadline:
                        self._shed(message, "deadline")
                        continue
                self.stats.admitted += 1
                server._dispatch(message)
        finally:
            self._pumping = False

    # ----------------------------------------------------------------- helpers

    @property
    def backlog(self) -> int:
        """Requests in the building: dispatched plus queued."""
        return self.server.in_flight + len(self.waiting)

    def _next_index(self) -> int:
        """Highest priority wins; FIFO within a priority."""
        best = 0
        best_priority = self.waiting[0].payload.priority
        for i in range(1, len(self.waiting)):
            priority = self.waiting[i].payload.priority
            if priority > best_priority:
                best, best_priority = i, priority
        return best

    def _eviction_index(self, priority: int) -> int | None:
        """Youngest waiter with the strictly worst priority below ``priority``."""
        worst = None
        worst_priority = priority
        for i, message in enumerate(self.waiting):
            candidate = message.payload.priority
            if candidate < worst_priority or (
                worst is not None and candidate == worst_priority
            ):
                worst, worst_priority = i, candidate
        return worst

    def _shed(self, message: Message, reason: str) -> None:
        config = self.config
        retry_after = max(
            config.service_estimate,
            (self.backlog + 1) * config.service_estimate / config.capacity,
        )
        self.stats.shed[reason] = self.stats.shed.get(reason, 0) + 1
        self.server._shed_reply(message, retry_after, reason)
