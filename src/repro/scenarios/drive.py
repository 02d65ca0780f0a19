"""Replay a compiled scenario through the rich-object runtime.

``deploy`` turns a :class:`~repro.scenarios.spec.ScenarioSpec` into a
live :class:`~repro.system.legion.LegionSystem` -- one jurisdiction per
scenario site, one :class:`~repro.workloads.apps.ScenarioServiceImpl`
instance per (class, site, slot), one client console per (tenant, site),
and a MayI ACL admitting only privileged tenants to ``Privileged()``.

``ScenarioDriver`` then replays a compiled event stream: one simulation
process per session, issuing the precompiled request trajectory with
think gaps between requests, classifying every outcome (ok / shed /
denied / failed) into both the shared :class:`TrafficStats` ledger and a
per-call record list.  The driver builds on the same
:class:`~repro.workloads.generators.SessionLoopDriver` core as the
closed- and open-loop drivers, so call accounting is identical across
all three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.driver import protected_hosts
from repro.naming.loid import LOID
from repro.security.mayi import ACLPolicy
from repro.simkernel.kernel import Timeout
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import ScenarioServiceImpl
from repro.workloads.generators import CallRecord, SessionLoopDriver

from .events import Arrival, Request, TickPlan
from .spec import ScenarioSpec

#: Hosts per scenario site (jurisdiction).
HOSTS_PER_SITE = 2


def method_for(spec: ScenarioSpec, a: Arrival, req: Request) -> Tuple[str, tuple]:
    """The application method and args one request maps to."""
    if req.kind == "read":
        return "Read", (a.key,)
    if req.kind == "write":
        return "Write", (a.key,)
    if req.kind == "batch":
        return "Work", (spec.batch_units,)
    if req.kind == "privileged":
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

    def target_of(self, a: Arrival) -> LOID:
        return self.instances[(a.klass, a.target_site)][a.slot]

    def client_of(self, a: Arrival) -> object:
        return self.clients[(a.tenant, a.site)]


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

    ``invoke_via(driver, client, arrival, request, timeout)`` may replace
    the default target-method invocation (the ``--replicas`` arm routes
    reads/writes through a :class:`ReplicaSession` this way).
    """

    kind = "scenario"

    def __init__(
        self,
        deployment: Deployment,
        plan: List[TickPlan],
        *,
        use_deadlines: bool = True,
        timeout: Optional[float] = None,
        invoke_via: Optional[Callable] = None,
    ) -> None:
        super().__init__(
            deployment.system.kernel,
            deployment.all_clients(),
            timeout=timeout,
        )
        self.deployment = deployment
        self.spec = deployment.spec
        self.plan = plan
        self.use_deadlines = use_deadlines
        self.invoke_via = invoke_via
        self.sessions = SessionTally()
        self.records: List[CallRecord] = []
        #: Kernel time when the pump started -- the scenario's t=0.  The
        #: system bootstrap consumes simulated time before any driver
        #: runs, so arrival offsets and phase windows are relative.
        self.t_base: Optional[float] = None

    # ------------------------------------------------------------- plumbing

    def _default_invoke(self, client, a: Arrival, req: Request, timeout):
        target = self.deployment.target_of(a)
        method, args = method_for(self.spec, a, req)
        yield from client.runtime.invoke(target, method, *args, timeout=timeout)

    def _session(self, a: Arrival, phase: str):
        client = self.deployment.client_of(a)
        timeout = self.timeout
        if self.use_deadlines and self.spec.tenants[a.tenant].deadline is not None:
            timeout = self.spec.tenants[a.tenant].deadline
        invoke = self.invoke_via or ScenarioDriver._default_invoke
        for req in a.requests:
            if req.think > 0:
                yield Timeout(req.think)
            rec = CallRecord()
            rec.issue = self.kernel.now
            rec.done = None
            rec.outcome = "pending"
            rec.phase = phase
            rec.kind = req.kind
            self.records.append(rec)
            self.stats.calls_issued += 1
            yield from self._invoke_once(
                invoke(self, client, a, req, timeout), rec, req.kind
            )
        if a.completed:
            self.sessions.completed += 1
        else:
            self.sessions.abandoned += 1

    def _pump(self):
        live = []
        self.t_base = self.kernel.now
        for tick in self.plan:
            for a in tick.arrivals:
                at = self.t_base + tick.t0 + a.offset
                if at > self.kernel.now:
                    yield Timeout(at - self.kernel.now)
                self.sessions.started += 1
                live.append(
                    self.kernel.spawn(
                        self._session(a, tick.phase), name="scenario-session"
                    )
                )
        for fut in live:  # every session must run to disposition
            yield fut

    def start(self):
        """Spawn the arrival pump; future resolves with TrafficStats."""
        pump = self.kernel.spawn(self._pump(), name="scenario-pump")
        return pump.then(lambda _results: self.stats, name="scenario-stats")

    # ------------------------------------------------------------- summaries

    def outcome_counts(self) -> Dict[str, int]:
        counts = {"ok": 0, "shed": 0, "denied": 0, "failed": 0, "pending": 0}
        for rec in self.records:
            counts[rec.outcome] += 1
        return counts

    def phase_goodput(self) -> List[dict]:
        """Per-phase delivered goodput as a fraction of capacity."""
        windows: Dict[str, List[float]] = {}
        t0 = self.t_base or 0.0
        for phase in self.spec.phases:
            windows[phase.name] = [t0, t0 + phase.duration]
            t0 += phase.duration
        capacity = self.spec.capacity_per_ms()
        rows = []
        for name, (lo, hi) in windows.items():
            ok = [
                r
                for r in self.records
                if r.outcome == "ok" and lo <= r.issue < hi
            ]
            latencies = sorted(r.done - r.issue for r in ok)
            p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0
            goodput = len(ok) / ((hi - lo) * capacity) if capacity else 0.0
            rows.append(
                {
                    "phase": name,
                    "ok": len(ok),
                    "goodput_x": round(goodput, 4),
                    "p99": round(p99, 2),
                }
            )
        return rows


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

    def session_for(self, driver: ScenarioDriver, client, a: Arrival):
        from repro.replication.policy import ReplicaSession

        key = (a.tenant, a.site, a.klass)
        if key not in self.sessions:
            self.sessions[key] = ReplicaSession(
                client.runtime, self.bindings[a.klass], self.consistency
            )
        return self.sessions[key]

    def invoke_via(self, driver: ScenarioDriver, client, a, req, timeout):
        session = self.session_for(driver, client, a)
        if req.kind == "write":
            yield from session.write(f"k{a.key}", a.key)
        else:
            yield from session.read(f"k{a.key}")
