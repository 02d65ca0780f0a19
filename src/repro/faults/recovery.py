"""RecoverySweeper: periodic magistrate sweeps over their hosts.

The reactive half of recovery rides the runtime's stale-binding path
(delivery failure → GetBinding(stale) → RecoverObject).  This is the
proactive half: each magistrate periodically probes its adopted hosts
(``SweepHosts``) and reactivates the residents of any host found dead --
so even objects nobody is calling come back, and the time-to-recover
distribution is bounded by the sweep interval rather than by traffic.
"""

from __future__ import annotations

from repro.simkernel.kernel import Periodic


class RecoverySweeper(Periodic):
    """One sweep process per magistrate, staggered to avoid lockstep.

    ``repair`` optionally couples a companion service with start/stop
    lifecycle (e.g. :class:`repro.replication.ReplicaRepairService`):
    host-level recovery brings processes back, the companion rebuilds
    replica groups -- one switch arms both halves of self-healing.
    """

    def __init__(self, system, interval: float = 120.0, repair=None) -> None:
        self.system = system
        self.kernel = system.kernel
        self.interval = interval
        self.repair = repair

    def _loops(self):
        magistrates = self.system.magistrates
        return [
            (
                f"recovery-sweep-{site}",
                self.interval,
                lambda: self.interval,
                magistrates[site].impl.sweep_hosts,
            )
            for site in sorted(magistrates)
        ]

    def start(self) -> None:
        """Spawn the per-magistrate sweep loops (and the repair companion)."""
        if self.repair is not None:
            self.repair.start()
        super().start()

    def stop(self) -> None:
        """Kill the sweep processes (end of the measured phase)."""
        super().stop()
        if self.repair is not None:
            self.repair.stop()
