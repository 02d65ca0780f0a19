"""ClonePoolRouter: client-side traffic spreading over a clone pool.

E4's lesson stands: server-side forwarding keeps naive clients correct,
but every envelope still lands on the parent first.  Bounded load needs
clone-aware clients.  The router keeps a client's view of one class's
clone pool fresh -- polling ``CloneEpoch()`` (one cheap call) and
re-fetching ``GetClonePool()`` only when the epoch moved -- and deals
requests over the pool round-robin.  Fetched bindings are seeded into
the client's cache, so routed calls go direct instead of resolving
through the binding hierarchy.
"""

from __future__ import annotations

from typing import List, Optional

from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.simkernel.kernel import Periodic

#: Simulated ms between two ``CloneEpoch()`` polls.
REFRESH = 20.0


class ClonePoolRouter(Periodic):
    """One client's rotating view of one class's clone pool."""

    def __init__(self, client, class_binding: Binding) -> None:
        self.client = client
        self.kernel = client.services.kernel
        self.class_binding = class_binding
        self.pool: List[Binding] = [class_binding]
        self.epoch: Optional[int] = None
        self._rr = 0

    def choose(self) -> LOID:
        """The next pool member's LOID (credit-aware round-robin).

        Plain round-robin unless the client runtime holds credit windows
        (repro.flow): then the rotation skips members whose window is
        exhausted -- in-flight saturation is the earliest overload signal
        a client has -- falling back to strict round-robin when every
        member is saturated, so backpressure degrades to fairness.
        """
        pool = self.pool
        size = len(pool)
        credits = self.client.runtime.credits
        if credits is not None and size > 1:
            for offset in range(size):
                member = pool[(self._rr + offset) % size]
                element = member.address.elements[0]
                if credits.has_headroom(member.loid.identity, element):
                    self._rr += offset + 1
                    return member.loid
        member = pool[self._rr % size]
        self._rr += 1
        return member.loid

    def _loops(self):
        return [(f"clone-pool-{self.client.loid}", 0.0, lambda: REFRESH, self.refresh_once)]

    def refresh_once(self):
        """One poll: re-fetch the pool only if the epoch moved (a failed
        poll keeps the old pool)."""
        epoch = yield from self.client.runtime.invoke(
            self.class_binding.loid, "CloneEpoch"
        )
        if epoch == self.epoch:
            return False
        epoch, pool = yield from self.client.runtime.invoke(
            self.class_binding.loid, "GetClonePool"
        )
        for binding in pool:
            self.client.runtime.seed_binding(binding)
        self.pool = pool
        self.epoch = epoch
        self._rr %= len(pool)
        return True
