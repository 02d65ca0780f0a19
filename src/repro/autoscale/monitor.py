"""LoadMonitor: request rates and queue depths from existing telemetry.

The monitor owns no wires and sends no messages: it diffs the cumulative
:class:`~repro.metrics.counters.MetricsRegistry` counters between samples
to get per-component request *rates* (requests per simulated ms), and
reads server-side queue depths (``ObjectServer.in_flight``) straight out
of the host process tables.  Both sources already exist for the Section 5
experiments, so observing the system costs the system nothing -- the
controller's probes and spawns are the only traffic autoscaling adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.metrics.counters import ComponentKind, MetricsRegistry


@dataclass
class LoadSample:
    """One observation: rates and queues at a simulated instant."""

    time: float
    #: component name → requests per simulated ms since the last sample.
    rates: Dict[str, float] = field(default_factory=dict)
    #: component name → requests dispatched but not yet replied to.
    queues: Dict[str, int] = field(default_factory=dict)
    #: component name → admission sheds per simulated ms since the last
    #: sample (repro.flow).  Empty when no admission control is active.
    sheds: Dict[str, float] = field(default_factory=dict)

    def pool_rate(self, names: Iterable[str]) -> float:
        """Aggregate rate over a set of components (a clone pool)."""
        return sum(self.rates.get(name, 0.0) for name in names)

    def pool_shed_rate(self, names: Iterable[str]) -> float:
        """Aggregate shed rate over a set of components (a clone pool)."""
        return sum(self.sheds.get(name, 0.0) for name in names)


class LoadMonitor:
    """Sample per-component load for one component kind.

    ``sample()`` is deterministic given the simulation state: it reads
    the shared registry and the process tables, both of which evolve only
    on simulated events.
    """

    def __init__(self, system, kind: ComponentKind = ComponentKind.CLASS_OBJECT) -> None:
        self.system = system
        self.kind = kind
        self._last_counts: Dict[str, int] = {}
        self._last_sheds: Dict[str, int] = {}
        self._last_time: float = system.kernel.now

    def sample(self) -> LoadSample:
        """Rates since the previous sample, plus current queue depths.

        Shed rates ride along: a server at capacity serves (and counts)
        at most its capacity in ``requests``, so under admission control
        the *demand* signal lives in the shed counter -- queue depth alone
        would read a saturated-but-bounded server as healthy.
        """
        now = self.system.kernel.now
        metrics = self.system.services.metrics
        counts = metrics.snapshot(self.kind)
        shed_counts = metrics.snapshot(self.kind, MetricsRegistry.SHED)
        window = now - self._last_time
        rates: Dict[str, float] = {}
        sheds: Dict[str, float] = {}
        if window > 0:
            for name, count in counts.items():
                delta = count - self._last_counts.get(name, 0)
                if delta < 0:
                    delta = count  # counters were reset mid-flight; re-baseline
                rates[name] = delta / window
            for name, count in shed_counts.items():
                delta = count - self._last_sheds.get(name, 0)
                if delta < 0:
                    delta = count
                if delta:
                    sheds[name] = delta / window
        self._last_counts = counts
        self._last_sheds = shed_counts
        self._last_time = now
        return LoadSample(time=now, rates=rates, queues=self.queue_depths(), sheds=sheds)

    def queue_depths(self) -> Dict[str, int]:
        """Server-side in-flight dispatch counts for live components."""
        queues: Dict[str, int] = {}
        for host_id in sorted(self.system.host_servers):
            host_server = self.system.host_servers[host_id]
            for entry in host_server.impl.processes.running():
                server = entry.server
                if server.component.kind is self.kind and server.active:
                    queues[server.component.name] = server.in_flight
        return queues
