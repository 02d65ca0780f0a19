"""RecoverySweeper: periodic magistrate sweeps over their hosts.

The reactive half of recovery rides the runtime's stale-binding path
(delivery failure → GetBinding(stale) → RecoverObject).  This is the
proactive half: each magistrate periodically probes its adopted hosts
(``SweepHosts``) and reactivates the residents of any host found dead --
so even objects nobody is calling come back, and the time-to-recover
distribution is bounded by the sweep interval rather than by traffic.
"""

from __future__ import annotations

from typing import List

from repro.errors import LegionError, ProcessKilled
from repro.simkernel.kernel import Timeout

#: Per-magistrate start offset (simulated ms) so sweeps do not run in
#: lockstep.
STAGGER = 7.0


class RecoverySweeper:
    """One sweep process per magistrate, staggered to avoid lockstep.

    ``repair`` optionally couples a companion service with start/stop
    lifecycle (e.g. :class:`repro.replication.ReplicaRepairService`):
    host-level recovery brings processes back, the companion rebuilds
    replica groups -- one switch arms both halves of self-healing.
    """

    def __init__(self, system, interval: float = 120.0, repair=None) -> None:
        self.system = system
        self.interval = interval
        self.repair = repair
        self._procs: List = []

    def start(self) -> None:
        """Spawn the per-magistrate sweep loops (and the repair companion)."""
        if self.repair is not None:
            self.repair.start()
        if self._procs:
            return
        for index, site in enumerate(sorted(self.system.magistrates)):
            server = self.system.magistrates[site]
            self._procs.append(
                self.system.kernel.spawn(
                    self._loop(server, index), name=f"recovery-sweep-{site}"
                )
            )

    def _loop(self, server, index: int):
        yield Timeout(self.interval + index * STAGGER)
        while True:
            try:
                yield from server.impl.sweep_hosts()
            except ProcessKilled:
                raise  # stop() tore this loop down; ProcessKilled must win
            except LegionError:
                pass  # a sweep interrupted by chaos just runs again later
            yield Timeout(self.interval)

    def stop(self) -> None:
        """Kill the sweep processes (end of the measured phase)."""
        for proc in self._procs:
            proc.kill()
        self._procs.clear()
        if self.repair is not None:
            self.repair.stop()
