"""The simulated network: endpoint registry, delivery, failure injection.

The network is the reproduction's stand-in for "standard protocols and the
communication facilities of host operating systems" (paper section 3.3).
Its contract with the layers above:

* **Registration.**  An active Legion object registers a handler under an
  :class:`ObjectAddressElement`.  Registration is what makes an Object
  Address *valid*; deactivation, migration, and deletion unregister it.
* **Delivery.**  ``send`` schedules the handler after a latency drawn from
  the :class:`LatencyModel` for the (source host, destination host) pair.
* **Stale-address detection (4.1.4).**  If the destination element is not
  registered (or the link is partitioned / the drop coin comes up tails),
  the sender receives a ``DELIVERY_FAILURE`` notice after a round-trip-ish
  delay.  This is exactly the signal the paper expects "the Legion
  communication layer of the object ... to detect".
* **Accounting.**  Per-link-class message counts feed the Section 5
  scalability experiments.

The network never interprets payloads; it moves envelopes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from repro.errors import NetworkError
from repro.net.address import ObjectAddressElement
from repro.net.latency import LatencyModel, LinkClass
from repro.net.message import Message, MessageKind, Undeliverable
from repro.simkernel.kernel import SimKernel

Handler = Callable[[Message], None]


@dataclass
class NetworkStats:
    """Aggregate traffic counters, reset-able between experiment phases."""

    messages_sent: int = 0
    messages_delivered: int = 0
    delivery_failures: int = 0
    drops: int = 0
    partition_blocks: int = 0
    by_class: Dict[LinkClass, int] = field(
        default_factory=lambda: {c: 0 for c in LinkClass}
    )

    def reset(self) -> None:
        """Zero every counter (used between warm-up and measurement)."""
        self.messages_sent = 0
        self.messages_delivered = 0
        self.delivery_failures = 0
        self.drops = 0
        self.partition_blocks = 0
        for c in LinkClass:
            self.by_class[c] = 0


class Endpoint:
    """A registered (element, handler) pair; returned by ``register``."""

    __slots__ = ("network", "element", "handler", "active")

    def __init__(self, network: "Network", element: ObjectAddressElement, handler: Handler):
        self.network = network
        self.element = element
        self.handler = handler
        self.active = True

    def unregister(self) -> None:
        """Remove this endpoint; subsequent sends to it fail as stale."""
        self.network.unregister(self.element)


class Network:
    """The message fabric connecting all simulated Legion objects."""

    def __init__(
        self,
        kernel: SimKernel,
        latency_model: Optional[LatencyModel] = None,
        rng=None,
    ) -> None:
        self.kernel = kernel
        self.latency = latency_model or LatencyModel()
        self.rng = rng
        self.stats = NetworkStats()
        #: Causal-trace recorder, or None.  The network only *annotates*
        #: traces (injected drops/partition blocks); span lifecycles stay
        #: with the runtimes, so this is None-checked per incident, never
        #: per message.
        self.tracer = None
        self._endpoints: Dict[ObjectAddressElement, Endpoint] = {}
        self._next_port: Dict[int, int] = {}
        #: Per-class probability that a message is silently lost.
        self.drop_probability: Dict[LinkClass, float] = {c: 0.0 for c in LinkClass}
        #: Unordered site pairs currently partitioned from each other.
        self._partitions: Set[frozenset] = set()

    # -- endpoint management --------------------------------------------------

    def allocate_element(self, host: int, node: int = 0) -> ObjectAddressElement:
        """A fresh, unused element on ``host`` (simulated transport).

        Ports are allocated sequentially per host, like an OS handing out
        ephemeral ports.
        """
        port = self._next_port.get(host, 1024)
        while True:
            element = ObjectAddressElement.sim(host=host, port=port, node=node)
            port += 1
            if port > 65535:
                raise NetworkError(f"host {host} ran out of ports")
            if element not in self._endpoints:
                self._next_port[host] = port
                return element

    def register(self, element: ObjectAddressElement, handler: Handler) -> Endpoint:
        """Attach ``handler`` to ``element``; makes the address live."""
        if element in self._endpoints:
            raise NetworkError(f"element {element} already registered")
        ep = Endpoint(self, element, handler)
        self._endpoints[element] = ep
        return ep

    def unregister(self, element: ObjectAddressElement) -> None:
        """Detach the endpoint (idempotent)."""
        ep = self._endpoints.pop(element, None)
        if ep is not None:
            ep.active = False

    # -- failure injection -----------------------------------------------------

    def partition(self, site_a: str, site_b: str) -> None:
        """Block all traffic between two sites (both directions)."""
        self._partitions.add(frozenset((site_a, site_b)))

    def heal(self, site_a: str, site_b: str) -> None:
        """Remove a partition (idempotent)."""
        self._partitions.discard(frozenset((site_a, site_b)))

    def _partitioned(self, src_host: int, dst_host: int) -> bool:
        a = self.latency.site_of(src_host)
        b = self.latency.site_of(dst_host)
        if a is None or b is None or a == b:
            return False
        return frozenset((a, b)) in self._partitions

    # -- sending ----------------------------------------------------------------

    def send(self, message: Message) -> None:
        """Dispatch ``message``; delivery (or a failure notice) is scheduled.

        Never raises for remote conditions -- failures come back as
        ``DELIVERY_FAILURE`` messages, matching the paper's model where the
        communication layer *detects* invalid addresses (section 4.1.4).
        """
        src_host = message.source.host
        dst_host = message.destination.host
        stats = self.stats
        latency = self.latency
        stats.messages_sent += 1
        link = latency.links.get((src_host, dst_host))
        if link is None:
            link = latency.classify(src_host, dst_host)
        stats.by_class[link] += 1
        one_way = latency.base[link]

        if self._partitions and self._partitioned(src_host, dst_host):
            stats.partition_blocks += 1
            self._trace_incident(message, "partition-block", link)
            self._bounce(message, Undeliverable.PARTITION, delay=one_way)
            return

        drop_p = self.drop_probability.get(link, 0.0)
        if drop_p > 0.0 and self.rng is not None and self.rng.random() < drop_p:
            stats.drops += 1
            self._trace_incident(message, "drop", link)
            # A silent drop: the sender only learns via its own timeout.
            return

        # kernel.post(one_way, self._deliver, message, one_way), minus the
        # frame: the latency model rejects a negative base when it is built.
        kernel = self.kernel
        kernel._seq += 1
        heapq.heappush(
            kernel._queue,
            (kernel.now + one_way, kernel._seq, self._deliver, (message, one_way)),
        )

    def _deliver(self, message: Message, one_way: float) -> None:
        ep = self._endpoints.get(message.destination)
        if ep is None or not ep.active:
            # Stale Object Address: element no longer registered.
            self._bounce(message, Undeliverable.NO_ENDPOINT, delay=one_way)
            return
        self.stats.messages_delivered += 1
        ep.handler(message)

    def _trace_incident(self, message: Message, what: str, link: LinkClass) -> None:
        """Record a network-injected failure on the message's trace."""
        tracer = self.tracer
        if tracer is None or message.trace is None:
            return
        tracer.instant(
            what, "net", parent=message.trace, component="net:fabric", link=link.value
        )

    def _bounce(self, message: Message, reason: Undeliverable, delay: float) -> None:
        """Schedule a DELIVERY_FAILURE notice back at the sender."""
        if message.kind in (MessageKind.REPLY, MessageKind.DELIVERY_FAILURE):
            # Nobody is waiting on a failed reply's failure; drop it.
            self.stats.delivery_failures += 1
            return
        self.stats.delivery_failures += 1
        notice = message.failure_notice(reason)
        src_ep_missing = message.source not in self._endpoints
        if src_ep_missing:
            return  # sender itself is gone; nothing to notify
        self.kernel.post(delay, self._deliver_notice, notice)

    def _deliver_notice(self, notice: Message) -> None:
        ep = self._endpoints.get(notice.destination)
        if ep is not None and ep.active:
            ep.handler(notice)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Network endpoints={len(self._endpoints)} "
            f"sent={self.stats.messages_sent}>"
        )
