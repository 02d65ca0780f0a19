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

from repro.flow.batching import BatchInvocation
from repro.net.message import Message


@dataclass
class AdmissionStats:
    """Per-server admission counters (logical requests, not messages)."""

    admitted: int = 0
    queued: int = 0
    #: reason → logical requests shed ("capacity", "deadline", "evicted").
    shed: Dict[str, int] = field(default_factory=dict)


class AdmissionController:
    """The bounded queue in front of one ObjectServer's dispatch loop."""

    __slots__ = ("server", "config", "waiting", "stats", "paused", "_pumping", "_queued")

    def __init__(self, server, config) -> None:
        self.server = server
        self.config = config
        #: FIFO of REQUEST messages waiting for a dispatch slot.
        self.waiting: List[Message] = []
        #: Logical requests in ``waiting``: kept in step at the three
        #: places the list changes, so ``backlog`` is O(1).
        self._queued = 0
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
        size = self._size(message)
        if not self.waiting and server.in_flight + size <= config.capacity:
            self.stats.admitted += size
            server._dispatch(message)
            return
        if size > config.capacity:
            # A batch wider than the whole server can never be dispatched
            # as a unit; queueing it would starve the head of the line.
            self._shed(message, "capacity")
            return
        payload = message.payload
        deadline = None if size > 1 else payload.deadline
        if deadline is not None:
            now = server.services.kernel.now
            wait = (self.backlog + size) * config.service_estimate / config.capacity
            if now + wait > deadline:
                self._shed(message, "deadline")
                return
        if len(self.waiting) >= config.queue_limit:
            victim = self._eviction_index(self._priority(message))
            if victim is None:
                self._shed(message, "capacity")
                return
            evicted = self.waiting.pop(victim)
            self._queued -= self._size(evicted)
            self._shed(evicted, "evicted")
        self.waiting.append(message)
        self._queued += size
        self.stats.queued += size
        # A higher-priority arrival may overtake a head batch that is too
        # wide for the free slots; give it a dispatch chance immediately.
        self.pump()

    # ------------------------------------------------------------------- drain

    def pump(self) -> None:
        """Dispatch eligible waiters; called after every completion."""
        if self._pumping:
            return
        self._pumping = True
        try:
            server = self.server
            config = self.config
            while self.waiting:
                index = self._next_index()
                message = self.waiting[index]
                size = self._size(message)
                if server.in_flight + size > config.capacity:
                    break  # head-of-line needs more free slots
                del self.waiting[index]
                self._queued -= size
                deadline = None if size > 1 else message.payload.deadline
                if deadline is not None:
                    now = server.services.kernel.now
                    if now + config.service_estimate > deadline:
                        self._shed(message, "deadline")
                        continue
                self.stats.admitted += size
                server._dispatch(message)
        finally:
            self._pumping = False

    # ----------------------------------------------------------------- helpers

    @staticmethod
    def _size(message: Message) -> int:
        payload = message.payload
        return len(payload.calls) if type(payload) is BatchInvocation else 1

    @staticmethod
    def _priority(message: Message) -> int:
        payload = message.payload
        return 0 if type(payload) is BatchInvocation else payload.priority

    @property
    def backlog(self) -> int:
        """Logical requests in the building: dispatched plus queued."""
        return self.server.in_flight + self._queued

    def _next_index(self) -> int:
        """Highest priority wins; FIFO within a priority."""
        best = 0
        best_priority = self._priority(self.waiting[0])
        for i in range(1, len(self.waiting)):
            priority = self._priority(self.waiting[i])
            if priority > best_priority:
                best, best_priority = i, priority
        return best

    def _eviction_index(self, priority: int) -> int | None:
        """Youngest waiter with the strictly worst priority below ``priority``."""
        worst = None
        worst_priority = priority
        for i, message in enumerate(self.waiting):
            candidate = self._priority(message)
            if candidate < worst_priority or (
                worst is not None and candidate == worst_priority
            ):
                worst, worst_priority = i, candidate
        return worst

    def _shed(self, message: Message, reason: str) -> None:
        config = self.config
        retry_after = max(
            config.service_estimate,
            (self.backlog + self._size(message))
            * config.service_estimate
            / config.capacity,
        )
        self.stats.shed[reason] = self.stats.shed.get(reason, 0) + self._size(message)
        self.server._shed_reply(message, retry_after, reason)
