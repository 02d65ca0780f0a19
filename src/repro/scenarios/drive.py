"""Replay a compiled scenario through the rich-object runtime.

``deploy`` turns a :class:`~repro.scenarios.spec.ScenarioSpec` into a
live :class:`~repro.system.legion.LegionSystem` -- one jurisdiction per
scenario site, one :class:`~repro.workloads.apps.ScenarioServiceImpl`
instance per (class, site, slot), one client console per (tenant, site),
and a MayI ACL admitting only privileged tenants to ``Privileged()``.

``ScenarioDriver`` then replays a compiled event stream: one simulation
process per session, issuing the precompiled request trajectory with
think gaps between requests, classifying every outcome (ok / shed /
denied / failed) into a :class:`~repro.workloads.calllog.CallLog`
indexed by the stream's request rows, the driver's only call counter.
The driver builds on the same
:class:`~repro.workloads.generators.SessionLoopDriver` core as the
closed- and open-loop drivers, so call accounting is identical across
all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.faults.driver import protected_hosts
from repro.naming.loid import LOID
from repro.security.mayi import ACLPolicy
from repro.simkernel.kernel import Timeout
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import ScenarioServiceImpl
from repro.workloads.calllog import CallLog
from repro.workloads.generators import SessionLoopDriver

from .events import ScenarioStream, StreamWindow
from .spec import ScenarioSpec

#: Hosts per scenario site (jurisdiction).
HOSTS_PER_SITE = 2

#: Sessions the pump reads from the stream's columns at a time.
SESSIONS_PER_READ = 512


def method_for(spec: ScenarioSpec, kind: str, key: int) -> Tuple[str, tuple]:
    """The application method and args one request of ``kind`` maps to."""
    if kind == "read":
        return "Read", (key,)
    if kind == "write":
        return "Write", (key,)
    if kind == "batch":
        return "Work", (spec.batch_units,)
    if kind == "privileged":
        return "Privileged", ()
    return "Work", (1.0,)


@dataclass
class SessionTally:
    """Conservation ledger: started == completed + abandoned + active."""

    started: int = 0
    completed: int = 0
    abandoned: int = 0

    @property
    def active(self) -> int:
        return self.started - self.completed - self.abandoned


@dataclass
class Deployment:
    """A scenario spec made live: system, targets, consoles, ACL."""

    spec: ScenarioSpec
    system: LegionSystem
    site_names: List[str]
    classes: List[object]  # class Bindings, one per scenario class
    instances: Dict[Tuple[int, int], List[LOID]]  # (klass, site) -> slots
    clients: Dict[Tuple[int, int], object]  # (tenant, site) -> console
    acl: Optional[ACLPolicy] = None

    def all_clients(self) -> List[object]:
        return [self.clients[key] for key in sorted(self.clients)]


def deploy(
    spec: ScenarioSpec,
    seed: int,
    *,
    flow=None,
    pin_classes: bool = False,
) -> Deployment:
    """Build the live system a scenario runs against.

    ``pin_classes`` places every class object (and its magistrate role)
    on site 0's protected host (:func:`~repro.faults.driver.protected_hosts`),
    so chaos never kills the metadata spine.
    """
    site_names = [f"site{i}" for i in range(spec.sites)]
    system = LegionSystem.build(
        [SiteSpec(name=name, hosts=HOSTS_PER_SITE) for name in site_names],
        seed=seed,
        flow=flow,
    )
    clients: Dict[Tuple[int, int], object] = {}
    for ti, tenant in enumerate(spec.tenants):
        for si, site in enumerate(site_names):
            clients[(ti, si)] = system.new_client(
                name=f"{tenant.name}-{site}", site=site
            )
    acl: Optional[ACLPolicy] = None
    if any(r == "privileged" for r in spec.mix.kinds):
        admitted = {
            clients[(ti, si)].loid
            for ti, tenant in enumerate(spec.tenants)
            if tenant.privileged
            for si in range(spec.sites)
        }
        acl = ACLPolicy(acl={"Privileged": admitted}, default=True)

    def factory(policy=acl):
        impl = ScenarioServiceImpl(
            service_time=spec.service_time, read_time=spec.read_time
        )
        if policy is not None:
            impl.mayi_policy = policy
        return impl

    pin_hints = {}
    if pin_classes:
        site0 = site_names[0]
        pin_hints = {
            "magistrate": system.magistrates[site0].loid,
            "host": system.host_servers[protected_hosts(system)[site0]].loid,
        }
    classes: List[object] = []
    instances: Dict[Tuple[int, int], List[LOID]] = {}
    for k in range(spec.n_classes):
        cls = system.create_class(f"Scenario{k}", factory=factory, **pin_hints)
        classes.append(cls)
        for si, site in enumerate(site_names):
            hosts = system.site_hosts[site]
            slots = []
            for slot in range(spec.targets_per_site):
                host_id = hosts[slot % len(hosts)]
                binding = system.create_instance(
                    cls.loid,
                    magistrate=system.magistrates[site].loid,
                    host=system.host_servers[host_id].loid,
                )
                slots.append(binding.loid)
            instances[(k, si)] = slots
    return Deployment(
        spec=spec,
        system=system,
        site_names=site_names,
        classes=classes,
        instances=instances,
        clients=clients,
        acl=acl,
    )


class ScenarioDriver(SessionLoopDriver):
    """Replay one compiled event stream against a deployment.

    ``invoke_via(driver, client, w, j, kind, timeout)`` may replace the
    default target-method invocation of a request of ``kind`` by session
    ``j`` of stream window ``w`` (the ``--replicas`` arm routes
    reads/writes through a :class:`ReplicaSession` this way; a hook
    falls back on :meth:`_default_invoke`).
    """

    kind = "scenario"

    def __init__(
        self,
        deployment: Deployment,
        plan: ScenarioStream,
        *,
        use_deadlines: bool = True,
        timeout: Optional[float] = None,
        invoke_via: Optional[Callable] = None,
    ) -> None:
        super().__init__(
            deployment.system.kernel,
            deployment.all_clients(),
            CallLog.of_stream(plan),
            timeout=timeout,
        )
        self.deployment = deployment
        self.spec = deployment.spec
        self.plan = plan
        self.use_deadlines = use_deadlines
        self.invoke_via = invoke_via
        self.sessions = SessionTally()
        #: Kernel time when the pump started -- the scenario's t=0.  The
        #: system bootstrap consumes simulated time before any driver
        #: runs, so arrival offsets and phase windows are relative.
        self.t_base: Optional[float] = None

    # ------------------------------------------------------------- plumbing

    def _default_invoke(self, client, w: StreamWindow, j: int, kind: str, timeout):
        """A request of ``kind`` by session ``j`` of window ``w``, made as
        the replay makes it without a hook."""
        target = self.deployment.instances[(w.klass[j], w.target_site[j])][w.slot[j]]
        method, args = method_for(self.spec, kind, w.key[j])
        yield from client.runtime.invoke(target, method, *args, timeout=timeout)

    def _session(self, w: StreamWindow, j: int):
        """Session ``j`` of window ``w``, read from the window's lists.

        The target and each request's method come straight from the
        columns; a hook reads the same window.  Each request writes its
        stream row of the log (its kind and phase are the stream's
        already).
        """
        spec, deployment, kernel, log = self.spec, self.deployment, self.kernel, self.log
        tenant = w.tenant[j]
        client = deployment.clients[(tenant, w.site[j])]
        timeout = self.timeout
        if self.use_deadlines and spec.tenants[tenant].deadline is not None:
            timeout = spec.tenants[tenant].deadline
        invoke_via = self.invoke_via
        target = deployment.instances[(w.klass[j], w.target_site[j])][w.slot[j]]
        key, row0 = w.key[j], w.row0
        for r in range(w.first[j], w.first[j + 1]):
            think = w.think[r]
            if think > 0:
                yield Timeout(think)
            kind, row, n = w.kind[r], row0 + r, log.n
            log.n = n + 1
            log.order[n] = row
            log.issue[row] = kernel.now
            if invoke_via is None:
                method, args = method_for(spec, kind, key)
                call = client.runtime.invoke(target, method, *args, timeout=timeout)
            else:
                call = invoke_via(self, client, w, j, kind, timeout)
            yield from self._invoke_once(call, row, kind)
        if w.completed[j]:
            self.sessions.completed += 1
        else:
            self.sessions.abandoned += 1

    def _pump(self):
        kernel = self.kernel
        live = []
        self.t_base = kernel.now
        for w in self.plan.windows(SESSIONS_PER_READ):
            for k, t0 in enumerate(w.t0):
                base = self.t_base + t0
                for j in range(w.start[k], w.start[k + 1]):
                    at = base + w.offset[j]
                    if at > kernel.now:
                        yield Timeout(at - kernel.now)
                    self.sessions.started += 1
                    live.append(
                        kernel.spawn(self._session(w, j), name="scenario-session")
                    )
        for fut in live:  # every session must run to disposition
            yield fut

    def start(self):
        """Spawn the arrival pump; future resolves with :attr:`stats`."""
        pump = self.kernel.spawn(self._pump(), name="scenario-pump")
        return pump.then(lambda _results: self.stats, name="scenario-stats")

    # ------------------------------------------------------------- summaries

    def outcome_counts(self) -> Dict[str, int]:
        return self.log.outcome_counts()

    def phase_goodput(self) -> List[dict]:
        """Per-phase delivered goodput as a fraction of capacity."""
        windows: Dict[str, List[float]] = {}
        t0 = self.t_base or 0.0
        for phase in self.spec.phases:
            windows[phase.name] = [t0, t0 + phase.duration]
            t0 += phase.duration
        capacity = self.spec.capacity_per_ms()
        issue, done = self.log.ok_times()
        report = []
        for name, (lo, hi) in windows.items():
            hit = (lo <= issue) & (issue < hi)
            latencies = np.sort(done[hit] - issue[hit])
            n_ok = len(latencies)
            p99 = latencies[int(0.99 * (n_ok - 1))].item() if n_ok else 0.0
            goodput = n_ok / ((hi - lo) * capacity) if capacity else 0.0
            report.append(
                {
                    "phase": name,
                    "ok": n_ok,
                    "goodput_x": round(goodput, 4),
                    "p99": round(p99, 2),
                }
            )
        return report


@dataclass
class ReplicaRouting:
    """State for the ``--replicas`` arm: one replica group per class.

    Reads and writes go through a per-client :class:`ReplicaSession`
    against the class's replicated store (locality-aware member
    selection picks the same-jurisdiction replica); compute kinds are
    recast as metadata reads of the hot key, since a replicated store
    exports no Work().
    """

    bindings: List[object]  # per-class replica-group binding
    consistency: str
    sessions: Dict[Tuple[int, int, int], object] = field(default_factory=dict)

    def session_for(self, client, w: StreamWindow, j: int):
        from repro.replication.policy import ReplicaSession

        klass = w.klass[j]
        key = (w.tenant[j], w.site[j], klass)
        if key not in self.sessions:
            self.sessions[key] = ReplicaSession(
                client.runtime, self.bindings[klass], self.consistency
            )
        return self.sessions[key]

    def invoke_via(self, driver: ScenarioDriver, client, w: StreamWindow, j: int,
                   kind: str, timeout):
        session = self.session_for(client, w, j)
        key = w.key[j]
        if kind == "write":
            yield from session.write(f"k{key}", key)
        else:
            yield from session.read(f"k{key}")
