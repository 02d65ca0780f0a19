"""LoadMonitor: class-object request and shed rates from existing telemetry.

The monitor owns no wires and sends no messages: it diffs the cumulative
:class:`~repro.metrics.counters.MetricsRegistry` counters between samples
to get per-component request and shed *rates* (per simulated ms).  The
counters already exist for the Section 5 experiments, so observing the
system costs the system nothing -- the controller's probes and spawns are
the only traffic autoscaling adds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable

from repro.metrics.counters import ComponentKind, MetricsRegistry


@dataclass
class LoadSample:
    """One observation: rates at a simulated instant."""

    time: float
    #: component name → requests per simulated ms since the last sample.
    rates: Dict[str, float] = field(default_factory=dict)
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
    """Sample per-component load of the class objects.

    ``sample()`` is deterministic given the simulation state: it reads
    the shared registry, which evolves only on simulated events.
    """

    def __init__(self, system) -> None:
        self.system = system
        self._last_counts: Dict[str, int] = {}
        self._last_sheds: Dict[str, int] = {}
        self._last_time: float = system.kernel.now

    def sample(self) -> LoadSample:
        """Request and shed rates since the previous sample.

        Shed rates ride along: a server at capacity serves (and counts)
        at most its capacity in ``requests``, so under admission control
        the *demand* signal lives in the shed counter.
        """
        now = self.system.kernel.now
        metrics = self.system.services.metrics
        counts = metrics.snapshot(ComponentKind.CLASS_OBJECT)
        shed_counts = metrics.snapshot(ComponentKind.CLASS_OBJECT, MetricsRegistry.SHED)
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
        return LoadSample(time=now, rates=rates, sheds=sheds)
