"""ChaosDriver: apply a FaultPlan against a running LegionSystem."""

from __future__ import annotations

from typing import Dict, List

from repro.faults.log import FaultLog
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.net.latency import LinkClass


def protected_hosts(system) -> Dict[str, int]:
    """Each site's protected host id: its first host, which carries the
    site's magistrate, binding agent, and (at the first site) the core
    class objects.  Crashing those infrastructure singletons has no
    recovery path in this reproduction -- the paper assumes replicated
    core services -- so chaos never crashes them, and availability
    experiments pin the classes they need there.
    """
    return {site: ids[0] for site, ids in system.site_hosts.items() if ids}


def eligible_hosts(system) -> List[int]:
    """Host ids a chaos run may crash: every host but the protected ones."""
    protected = set(protected_hosts(system).values())
    return [h for h in sorted(system.host_servers) if h not in protected]


class ChaosDriver:
    """Schedules a plan's events on the system's kernel, on simulated time.

    The driver is deterministic by construction: the plan holds every
    random draw already, so applying it consumes no randomness.  All
    incident bookkeeping goes to the :class:`FaultLog`, which is also
    installed as ``services.fault_log`` so magistrates can report the
    recoveries they perform.
    """

    def __init__(self, system, plan: FaultPlan, log: FaultLog) -> None:
        self.system = system
        self.plan = plan
        self.log = log
        self._protected = set(protected_hosts(system).values())
        self._started = False

    def start(self) -> None:
        """Install the log and schedule every event (times are relative
        to now)."""
        if self._started:
            return
        self._started = True
        self.system.services.fault_log = self.log
        base = self.system.kernel.now
        for event in self.plan:
            self.system.kernel.post(
                max(0.0, base + event.time - self.system.kernel.now),
                self._apply,
                event,
            )

    def _apply(self, event: FaultEvent) -> None:
        if event.kind is FaultKind.HOST_CRASH:
            self.crash_host(int(event.target))
        elif event.kind is FaultKind.OBJECT_CRASH:
            self.crash_object(event.target)
        elif event.kind is FaultKind.LINK_DEGRADE:
            self.degrade_link(event.target, event.severity, event.duration)
        elif event.kind is FaultKind.PARTITION:
            site_a, site_b = event.target.split("|", 1)
            self.partition(site_a, site_b, event.duration)

    # ------------------------------------------------------------------ faults

    def crash_host(self, host_id: int) -> None:
        """The whole host dies: every resident process is killed and every
        endpoint on the host (including the Host Object's own) vanishes."""
        if host_id in self._protected:
            return  # infrastructure hosts are out of scope (see protected_hosts)
        server = self.system.host_servers.get(host_id)
        if server is None or not server.active:
            return  # unknown or already down
        impl = server.impl
        now = self.system.kernel.now
        for entry in impl.processes.running():
            entry.server.deactivate()
            impl.processes.mark_crashed(entry, f"host {host_id} crashed")
            self.log.inject(now, "object-lost", str(entry.loid), f"host {host_id}")
        impl.accepting = False
        server.deactivate()
        self.log.inject(now, "host-crash", str(host_id))

    def crash_object(self, key: str) -> None:
        """One object's process dies abnormally (its host survives)."""
        now = self.system.kernel.now
        for host_id, server in self.system.host_servers.items():
            if not server.active:
                continue
            for entry in server.impl.processes:
                if str(entry.loid) == key and not entry.crashed:
                    server.impl.crash_object(entry.loid, "chaos: object crash")
                    self.log.inject(now, "object-crash", key, f"host {host_id}")
                    return
        # Not running anywhere right now (already lost, or inert): no-op.

    def degrade_link(self, link: str, severity: float, duration: float) -> None:
        """Raise a link class's drop probability for ``duration``."""
        link_class = LinkClass(link)
        network = self.system.network
        before = network.drop_probability.get(link_class, 0.0)
        network.drop_probability[link_class] = max(before, severity)
        now = self.system.kernel.now
        self.log.inject(
            now, "link-degrade", link, f"p={severity:.3f} for {duration:.0f}"
        )

        def restore() -> None:
            network.drop_probability[link_class] = before
            self.log.inject(self.system.kernel.now, "link-restore", link)

        self.system.kernel.post(duration, restore)

    def partition(self, site_a: str, site_b: str, duration: float) -> None:
        """Split two sites for ``duration``, then heal."""
        network = self.system.network
        network.partition(site_a, site_b)
        now = self.system.kernel.now
        target = f"{site_a}|{site_b}"
        self.log.inject(now, "partition", target, f"for {duration:.0f}")

        def heal() -> None:
            network.heal(site_a, site_b)
            self.log.inject(self.system.kernel.now, "partition-heal", target)

        self.system.kernel.post(duration, heal)
