"""Replica-group maintenance: probes, one-shot repair, background service.

The one-shot helpers (:func:`probe_replicas`,
:func:`repair_replica_group`) are the original section-4.3 maintenance
generators.  They use only public Legion member functions -- Ping on the
replicas, ReportDeadReplica on the class -- so they model what a
monitoring object built *on* Legion would do.

:class:`ReplicaRepairService` is the background half: one sweep loop per
jurisdiction (mirroring :class:`repro.faults.recovery.RecoverySweeper`,
which accepts it as a companion) that walks the site's ReplicaCatalog,
probes each tracked group, shrinks dead members out, and *regrows*
under-replicated groups via the class's AddReplica, hinted at the
magistrate of a jurisdiction that lost coverage.  State transfer is the
class's job: AddReplica seeds the new member (object-mandatory
SaveState/RestoreState) before publishing it in the group address.
Every repair call is stamped with a negative flow-control priority and
paced between groups, so under overload admission control sheds repair
traffic before any foreground request: repair yields, foreground wins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, List, Optional, Tuple

from repro.errors import (
    BindingNotFound,
    DeliveryFailure,
    LegionError,
)
from repro.core.method import MethodInvocation
from repro.core.runtime import LegionRuntime, RetryPolicy
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.net.address import ObjectAddressElement
from repro.security.environment import CallEnvironment
from repro.simkernel.futures import SimFuture
from repro.simkernel.kernel import Periodic, Timeout

#: The patient policy repair clients run: wide backoff, honors the
#: Overloaded retry_after pushback (repair re-offers only when the
#: server said it has room), rides out partitions and in-flight
#: recovery.  Jitter stays 0 so repair schedules are deterministic.
REPAIR_RETRY_POLICY = RetryPolicy(
    max_attempts=10,
    base_backoff=20.0,
    max_backoff=400.0,
    budget=20_000.0,
    retry_unreachable=True,
)


@dataclass
class ReplicaGroupStatus:
    """The result of probing every element of a replica group."""

    loid: LOID
    alive: List[ObjectAddressElement] = field(default_factory=list)
    dead: List[ObjectAddressElement] = field(default_factory=list)

    @property
    def total(self) -> int:
        """Group size at probe time."""
        return len(self.alive) + len(self.dead)

    @property
    def availability(self) -> float:
        """Fraction of replicas answering (1.0 for a healthy group)."""
        return len(self.alive) / self.total if self.total else 0.0


def probe_replicas(
    runtime: LegionRuntime,
    binding: Binding,
    env: Optional[CallEnvironment] = None,
    timeout: Optional[float] = None,
):
    """Ping every element of ``binding``'s address; classify alive/dead.

    Probes are issued concurrently (one request per element) and awaited
    individually, so one dead replica does not slow the others' answers.
    """
    if env is None:
        env = CallEnvironment.originating(runtime.loid)
    futures: List[Tuple[ObjectAddressElement, SimFuture]] = []
    for element in binding.address.elements:
        invocation = MethodInvocation(
            target=binding.loid, method="Ping", args=(), env=env
        )
        futures.append((element, runtime.send_request(element, invocation, timeout)))
    status = ReplicaGroupStatus(loid=binding.loid)
    for element, fut in futures:
        try:
            result = yield fut
            result.unwrap()
            status.alive.append(element)
        except DeliveryFailure:
            status.dead.append(element)
    return status


def repair_replica_group(
    runtime: LegionRuntime,
    binding: Binding,
    class_loid: LOID,
    env: Optional[CallEnvironment] = None,
):
    """Probe the group and report each dead member to the class.

    Returns the repaired :class:`Binding` (identical to the input when
    everything was alive).  Raises
    :class:`~repro.errors.BindingNotFound` if the class reports the last
    replica gone.
    """
    if env is None:
        env = CallEnvironment.originating(runtime.loid)
    status = yield from probe_replicas(runtime, binding, env)
    current = binding
    for element in status.dead:
        current = yield from runtime.invoke(
            class_loid, "ReportDeadReplica", binding.loid, element, env=env
        )
    runtime.cache.insert(current)
    return current


class ReplicaRepairService(Periodic):
    """Background re-replication, one staggered sweep loop per site.

    Requires ``enable_replication`` to have run: the per-site catalogs
    are the work lists.

    Parameters
    ----------
    interval:
        Simulated ms between repair sweeps of one site's catalog.
    priority:
        Flow-control priority stamped on every repair call.  Negative,
        so under overload admission control sheds/evicts repair traffic
        before any foreground request (PR 5 semantics: higher wins).
    pacing:
        Simulated ms the repair loop idles between replica groups, so a
        long catalog never monopolises a sweep tick.
    """

    def __init__(
        self,
        system,
        interval: float = 150.0,
        priority: int = -1,
        pacing: float = 5.0,
    ) -> None:
        directory = system.services.replication
        if directory is None:
            raise LegionError(
                "ReplicaRepairService needs enable_replication() first"
            )
        self.system = system
        self.kernel = system.kernel
        self.directory = directory
        self.interval = interval
        self.priority = priority
        self.pacing = pacing
        #: Per-attempt timeout for repair probes and copy calls.
        self.timeout = 250.0
        #: site -> client console the repair traffic originates from
        #: (placed at the site, so probes of local replicas stay local).
        self._clients: dict = {}
        #: (site, loid, kind) audit rows: kind in {"shrink", "regrow"}.
        self.actions: List[Tuple[str, Any, str]] = []

    def _client_runtime(self, site: str) -> LegionRuntime:
        client = self._clients.get(site)
        if client is None:
            client = self.system.new_client(f"repair-{site}", site=site)
            client.runtime.retry_policy = REPAIR_RETRY_POLICY
            self._clients[site] = client
        return client.runtime

    def _loops(self):
        return [
            (
                f"replica-repair-{site}",
                self.interval,
                lambda: self.interval,
                partial(self.sweep_site, site),
            )
            for site in self.directory.sites()
        ]

    def sweep_site(self, site: str):
        """One pass over ``site``'s catalog: probe, shrink, regrow.

        Public so experiments/tests can drive a deterministic final pass
        after the measured window (``system.spawn(svc.sweep_site(s))``).
        """
        runtime = self._client_runtime(site)
        catalog = self.directory.catalogs[site]
        entries = yield from runtime.invoke(
            catalog.loid, "Tracked", timeout=self.timeout, priority=self.priority
        )
        for loid, want, class_loid in entries:
            if class_loid is None:
                continue
            yield Timeout(self.pacing)
            yield from self.repair_group(runtime, site, loid, want, class_loid)

    def repair_group(self, runtime: LegionRuntime, site: str, loid, want, class_loid):
        """Probe one group; shrink dead members; regrow to ``want``.

        Each regrow hints the magistrate of a site the group no longer
        covers (in directory order), so a group that lost its only
        replica in a jurisdiction is restored *there*, not wherever the
        sweeping site has room.  The class seeds the new member before
        publishing it, so a regrow observed in the returned binding is a
        full copy; a grow that could not be seeded raises and is retried
        on a later sweep.
        """
        try:
            binding = yield from runtime.invoke(
                class_loid, "GetBinding", loid,
                timeout=self.timeout, priority=self.priority,
            )
        except LegionError:
            return  # group gone or class unreachable: next sweep retries
        status = yield from probe_replicas(
            runtime, binding, timeout=self.timeout
        )
        for element in status.dead:
            try:
                binding = yield from runtime.invoke(
                    class_loid, "ReportDeadReplica", loid, element,
                    timeout=self.timeout, priority=self.priority,
                )
            except BindingNotFound:
                return  # last replica gone: nothing left to copy from
            self.actions.append((site, loid, "shrink"))
        site_of = self.system.network.latency.site_of
        while want and len(binding.address.elements) < want and status.alive:
            covered = {site_of(e.host) for e in binding.address.elements}
            missing = [s for s in self.directory.sites() if s not in covered]
            hint_site = missing[0] if missing else site
            before = set(binding.address.elements)
            try:
                binding = yield from runtime.invoke(
                    class_loid, "AddReplica", loid,
                    self.system.magistrates[hint_site].loid,
                    timeout=self.timeout, priority=self.priority,
                )
            except LegionError:
                return  # no capacity / no seed source / unreachable: retry later
            grown = [e for e in binding.address.elements if e not in before]
            if not grown:
                break  # another sweep (or the class's size cap) got there first
            for element in grown:
                status.alive.append(element)
                self.actions.append((site, loid, "regrow"))
        runtime.cache.insert(binding)
