"""LegionSystem: builder and facade for a complete simulated Legion.

``LegionSystem.build(...)`` assembles, in bootstrap order (section 4.2.1):

1. the simulation kernel, network, and latency model (hosts → sites);
2. the six core Abstract class objects (via :mod:`repro.system.bootstrap`);
3. the standard derived classes, started out-of-band like the cores:
   UnixHost / SPMDHost / UnixSMMP / CM-5 / CrayT3D (Fig. 8),
   StandardMagistrate (kind-of LegionMagistrate), StandardBindingAgent
   (kind-of LegionBindingAgent), StandardScheduler;
4. per site: a Jurisdiction with disks (a Vault), Host Objects started
   "from the command line" that then *contact their class* to register,
   a Magistrate that adopts the site's hosts, and a Binding Agent that
   becomes the default agent for objects activated at that site;
5. a string-name Context (the single persistent name space) and a client
   console -- a "client host" in the paper's sense -- for issuing calls
   from outside Legion.

After ``build``, applications use :meth:`create_class`,
:meth:`create_instance`, and :meth:`call` -- each a thin wrapper over real
Legion method invocations travelling through the simulated network.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import BootstrapError, InvalidArgument
from repro.binding.agent import BindingAgentImpl
from repro.core.context import SystemServices
from repro.core.legion_class import ClassObjectImpl
from repro.core.object_base import LegionObjectImpl
from repro.core.server import ObjectServer
from repro.hosts.host_types import (
    CM5HostImpl,
    CrayT3DHostImpl,
    SPMDHostImpl,
    UnixHostImpl,
    UnixSMMPHostImpl,
)
from repro.jurisdiction.jurisdiction import Jurisdiction
from repro.jurisdiction.magistrate import MagistrateImpl
from repro.metrics.counters import ComponentKind
from repro.naming.binding import Binding
from repro.naming.context import Context
from repro.naming.loid import LOID
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.persistence.storage import PersistentStore
from repro.simkernel.futures import SimFuture
from repro.simkernel.kernel import SimKernel
from repro.simkernel.rng import RngStreams
from repro.system.bootstrap import CoreObjects, bootstrap_core, start_out_of_band

#: host_type → (Host Object implementation, class name, superclass
#: name): the Fig. 8 hierarchy, parents before children.
HOST_TYPES: Dict[str, Tuple[type, str, str]] = {
    "unix": (UnixHostImpl, "UnixHost", "LegionHost"),
    "spmd": (SPMDHostImpl, "SPMDHost", "LegionHost"),
    "unix-smmp": (UnixSMMPHostImpl, "UnixSMMP", "UnixHost"),
    "cm-5": (CM5HostImpl, "CM5", "SPMDHost"),
    "cray-t3d": (CrayT3DHostImpl, "CrayT3D", "SPMDHost"),
}

#: The standard infrastructure classes (Fig. 9 pattern): name → superclass.
INFRASTRUCTURE_CLASSES: Dict[str, str] = {
    "StandardMagistrate": "LegionMagistrate",
    "StandardBindingAgent": "LegionBindingAgent",
    "StandardScheduler": "LegionScheduler",
}


@dataclass
class SiteSpec:
    """One site (organisation) of the testbed."""

    name: str
    hosts: int = 2
    host_type: str = "unix"
    disks: int = 1
    #: Processes per host (None = the host type's default).
    max_processes: Optional[int] = None


def _check_sites(sites: Sequence[SiteSpec]) -> None:
    """Refuse what the builder cannot honour, naming the site, the field
    and its legal values."""
    if not sites:
        raise BootstrapError("a Legion system needs at least one site")
    names: set = set()
    for spec in sites:
        where = f"site {spec.name!r}"
        if spec.name in names:
            raise BootstrapError(f"{where}: name is taken; every site needs its own")
        names.add(spec.name)
        if spec.host_type not in HOST_TYPES:
            raise BootstrapError(
                f"{where}: host_type {spec.host_type!r} is not one of {', '.join(HOST_TYPES)}"
            )
        counts = [("hosts", spec.hosts, ""), ("disks", spec.disks, "")]
        if spec.max_processes is not None:
            counts.append(("max_processes", spec.max_processes, "None or "))
        for field_name, value, none_ok in counts:
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise BootstrapError(
                    f"{where}: {field_name}={value!r} must be {none_ok}an int at least 1"
                )
        host_impl = HOST_TYPES[spec.host_type][0]
        if spec.max_processes is not None and not issubclass(host_impl, UnixHostImpl):
            sized = [t for t, (impl, *_) in HOST_TYPES.items() if issubclass(impl, UnixHostImpl)]
            raise BootstrapError(
                f"{where}: max_processes is for host_type {' or '.join(sized)}, "
                f"not {spec.host_type!r}"
            )


def _release(kernel: "weakref.ref[SimKernel]", network: "weakref.ref[Network]") -> None:
    """Finalizer of a dropped system: empty its two hubs.

    The kernel's queue holds the callbacks that would resume processes,
    and the network's registry holds every server's handler; with those
    emptied, nothing else the system built is in a cycle, and reference
    counting frees it.  Weak references, so the finalizer itself keeps
    nothing alive; they are dead already when the collector (not a
    refcount) reaps the system, and then there is nothing to do.
    """
    kernel_now, network_now = kernel(), network()
    if kernel_now is not None:
        kernel_now.clear()
    if network_now is not None:
        network_now.unregister_all()


class LegionSystem:
    """A fully assembled simulated Legion.  Use :meth:`build`.

    A system lives as long as its handle: dropping the last reference to
    the ``LegionSystem`` runs a finalizer that empties its kernel's event
    queue and its network's endpoint registry, and reference counting
    frees the rest at once -- servers, runtimes, implementations, the
    tables -- without waiting for the cyclic collector.  Three things
    still fall to the collector: a process still parked when its system
    drops (a pending process's bound callbacks point at itself), an
    admission controller's pointer back to its server under a
    ``FlowConfig``, and a health governor (or any other service object)
    that holds the ``LegionSystem`` and is held by it in turn.
    """

    #: Class id used for client consoles (outside Legion; never resolved).
    _CLIENT_CLASS_ID = 7

    def __init__(self) -> None:
        self.kernel: SimKernel = None  # type: ignore[assignment]
        self.network: Network = None  # type: ignore[assignment]
        self.services: SystemServices = None  # type: ignore[assignment]
        self.core: CoreObjects = None  # type: ignore[assignment]
        self.sites: List[SiteSpec] = []
        self.jurisdictions: Dict[str, Jurisdiction] = {}
        self.magistrates: Dict[str, ObjectServer] = {}
        self.host_servers: Dict[int, ObjectServer] = {}
        self.site_hosts: Dict[str, List[int]] = {}
        self.agents: Dict[str, ObjectServer] = {}
        self.standard_classes: Dict[str, ObjectServer] = {}
        self.context = Context()
        self.console: ObjectServer = None  # type: ignore[assignment]
        self._client_seq = itertools.count(1)
        self._host_ids = itertools.count(1)
        self._registrations: list = []

    # ------------------------------------------------------------------ building

    @classmethod
    def build(
        cls,
        sites: Sequence[SiteSpec],
        seed: int = 0,
        agent_cache_capacity: int = 4096,
        binding_ttl: Optional[float] = None,
        flow=None,
    ) -> "LegionSystem":
        """Assemble a system with one jurisdiction per site.

        ``flow`` installs a :class:`repro.flow.FlowConfig` before any
        object activates, so every ObjectServer and runtime in the system
        (bootstrap included) is built under the same flow-control regime.
        ``agent_cache_capacity`` is an integer >= 1; ``binding_ttl`` is
        None (bindings never expire) or finite and > 0.
        """
        _check_sites(sites)
        if not 1 <= agent_cache_capacity < math.inf:
            raise InvalidArgument(
                f"agent_cache_capacity={agent_cache_capacity!r}: must be in [1, inf)"
            )
        if binding_ttl is not None and not 0.0 < binding_ttl < math.inf:
            raise InvalidArgument(
                f"binding_ttl={binding_ttl!r}: must be None or in (0, inf)"
            )
        system = cls()
        system.sites = list(sites)
        system.kernel = SimKernel()
        rng = RngStreams(seed)
        lat = LatencyModel()
        system.network = Network(system.kernel, lat, rng=rng.stream("network"))
        weakref.finalize(
            system, _release, weakref.ref(system.kernel), weakref.ref(system.network)
        ).atexit = False
        system.services = SystemServices(
            kernel=system.kernel,
            network=system.network,
            rng=rng,
            flow=flow,
        )

        # -- host-id allocation first: the core objects need a host to sit on.
        for spec in system.sites:
            ids = [next(system._host_ids) for _ in range(spec.hosts)]
            system.site_hosts[spec.name] = ids
            for host_id in ids:
                lat.assign_host(host_id, spec.name)

        core_host = system.site_hosts[system.sites[0].name][0]
        system.core = bootstrap_core(system.services, core_host)

        # -- standard derived classes, started out-of-band (Fig. 8 / Fig. 9).
        system._bootstrap_standard_classes(core_host)

        # -- per-site infrastructure.
        for spec in system.sites:
            system._build_site(spec, agent_cache_capacity)

        # -- the default binding agent is the first site's agent.
        first_site = system.sites[0].name
        system.services.default_binding_agent = system.agents[first_site].binding()
        # Core objects also get an agent (they were built before agents).
        for server in system.core.servers.values():
            server.runtime.set_binding_agent(system.agents[first_site].binding())

        # -- open LegionObject and LegionClass for user derivation: any
        #    magistrate may host user classes and instances.
        all_magistrates = [m.loid for m in system.magistrates.values()]
        for role in ("LegionObject", "LegionClass"):
            system.core[role].impl.candidate_magistrates = list(all_magistrates)
        if binding_ttl is not None:
            for role in ("LegionObject", "LegionClass"):
                system.core[role].impl.binding_ttl = binding_ttl

        # -- a client console (the paper's "client host" notion).
        system.console = system.new_client("console")

        # -- drain bootstrap registrations, surfacing any failure.
        system.kernel.run()
        for fut in system._registrations:
            if not fut.done():
                raise BootstrapError(f"registration {fut.name!r} never completed")
            fut.result()  # re-raises registration failures
        system._registrations.clear()
        return system

    def _bootstrap_standard_classes(self, core_host: int) -> None:
        """Start the Fig. 8 host classes and the standard infrastructure
        classes out-of-band; each enters its creator's logical table, and
        LegionClass records the creator as responsible for locating it."""
        legion_class = self.core.legion_class
        classes = dict(self.core.servers)
        hierarchy = [(name, parent) for _impl, name, parent in HOST_TYPES.values()]
        for name, parent in [*hierarchy, *INFRASTRUCTURE_CLASSES.items()]:
            creator = classes[parent]
            class_id = legion_class.allocate_class_id(creator.loid, name)
            impl = ClassObjectImpl(
                class_name=name,
                class_id=class_id,
                superclass=creator.loid,
            )
            loid = LOID.for_class(class_id, self.services.secret)
            server = start_out_of_band(
                self.services, loid, impl, core_host, ComponentKind.CLASS_OBJECT,
                name, 4096,
            )
            creator.impl._add_row(loid, server.address, [], True, 0)
            classes[name] = self.standard_classes[name] = server

    def _build_site(self, spec: SiteSpec, agent_cache: int) -> None:
        """One site: jurisdiction, disks, hosts, magistrate, binding agent.

        Host Objects are started "from a command line" on each host, the
        Magistrate and the Binding Agent on the site's first host; the
        site is wired together directly, and then each contacts its class
        to register, by real Legion invocation (section 4.2.1).
        """
        jurisdiction = Jurisdiction(spec.name)
        for i in range(spec.disks):
            jurisdiction.vault.add_store(PersistentStore(spec.name, f"disk{i}"))
        self.jurisdictions[spec.name] = jurisdiction
        host_impl, host_class, _superclass = HOST_TYPES[spec.host_type]
        sized = {} if spec.max_processes is None else {"max_processes": spec.max_processes}
        first_host = self.site_hosts[spec.name][0]

        started: List[Tuple[ObjectServer, LOID]] = []  # (server, its class)

        def start(
            class_name: str, impl: LegionObjectImpl, host: int, kind: ComponentKind,
            name: str, cache: int,
        ) -> ObjectServer:
            cls = self.standard_classes[class_name]
            loid = cls.impl._allocate_instance_loid()
            server = start_out_of_band(self.services, loid, impl, host, kind, name, cache)
            started.append((server, cls.loid))
            return server

        hosts = [
            start(
                host_class, host_impl(host_id=host_id, **sized), host_id,
                ComponentKind.HOST_OBJECT, f"{spec.name}/h{host_id}", 128,
            )
            for host_id in self.site_hosts[spec.name]
        ]
        magistrate_impl = MagistrateImpl(jurisdiction)
        magistrate = start(
            "StandardMagistrate", magistrate_impl, first_host,
            ComponentKind.MAGISTRATE, spec.name, 128,
        )
        agent = start(
            "StandardBindingAgent", BindingAgentImpl(), first_host,
            ComponentKind.BINDING_AGENT, spec.name, agent_cache,
        )
        self.magistrates[spec.name] = magistrate
        self.agents[spec.name] = agent
        jurisdiction.magistrate = magistrate.loid

        # The agent consults itself on its own cache misses (the message
        # still travels the network; self-resolution bottoms out at the
        # seeded LegionClass binding).
        agent_binding = agent.binding()
        for server, _cls in started:
            server.runtime.set_binding_agent(agent_binding)
        for server in hosts:
            self.host_servers[server.host] = server
            jurisdiction.add_host(server.host, server.loid)
            server.impl.site_binding_agent = agent_binding
            server.impl.magistrate = magistrate.loid
            magistrate_impl.add_host(server.binding())
        for server, cls in started:
            self._registrations.append(
                self.kernel.spawn(
                    server.runtime.invoke(cls, "RegisterOutOfBand", server.binding()),
                    name=f"register-{server.runtime.component_label}",
                )
            )

    # ------------------------------------------------------------------- clients

    def new_client(self, name: str = "", site: Optional[str] = None) -> ObjectServer:
        """A client console: can call into Legion, is not a Legion resource.

        Clients live on a site's first host (default: the first site) so
        their traffic has a locality class, but they are not registered
        with any class -- per the paper's "client hosts" footnote.
        """
        site = site or self.sites[0].name
        if site not in self.site_hosts:
            raise InvalidArgument(
                f"new_client site {site!r}: not one of {', '.join(self.site_hosts)}"
            )
        host_id = self.site_hosts[site][0]
        seq = next(self._client_seq)
        loid = LOID.for_instance(self._CLIENT_CLASS_ID, seq, self.services.secret)
        server = start_out_of_band(
            self.services, loid, LegionObjectImpl(), host_id, ComponentKind.OTHER,
            name or f"client-{seq}", 128,
        )
        server.runtime.set_binding_agent(self.agents[site].binding())
        # A client exists to call: its cache is built now, not on its
        # first call (the first read of ``cache`` builds it).
        _ = server.runtime.cache
        return server

    def runtimes(self, clients=()) -> list:
        """The runtime of every live server of the system -- host objects,
        magistrates, agents and the objects running on the hosts -- plus
        those of ``clients`` (which the system does not track)."""
        servers = [
            *self.host_servers.values(),
            *self.magistrates.values(),
            *self.agents.values(),
            *clients,
        ]
        for host_server in self.host_servers.values():
            servers += [entry.server for entry in host_server.impl.processes.running()]
        return [server.runtime for server in servers]

    # --------------------------------------------------------------------- running

    def run(self, until: Optional[float] = None) -> None:
        """Drain the event queue (optionally up to a simulated time)."""
        self.kernel.run(until=until)

    def call(
        self,
        target: Union[LOID, str],
        method: str,
        *args: Any,
        client: Optional[ObjectServer] = None,
        timeout: Optional[float] = None,
        max_events: Optional[int] = 2_000_000,
    ) -> Any:
        """Issue one Legion method invocation and run it to completion.

        ``target`` may be a LOID or a Context name.  The call originates
        at the console (or the given client), travels the simulated
        network, and this method returns the unwrapped result.  A
        ``timeout`` is None (the runtime's default) or finite and > 0.
        """
        if timeout is not None and not 0.0 < timeout < math.inf:
            raise InvalidArgument(
                f"call timeout={timeout!r}: must be None or a finite number > 0"
            )
        # The kernel refuses it too, but only once the call is queued.
        if max_events is not None and (type(max_events) is not int or max_events < 0):
            raise InvalidArgument(f"call max_events={max_events!r}: must be None or an int >= 0")
        loid = self.lookup(target) if isinstance(target, str) else target
        origin = client or self.console
        fut = self.kernel.spawn(
            origin.runtime.invoke(loid, method, *args, timeout=timeout),
            name="call-" + method,
        )
        return self.kernel.run_until_complete(fut, max_events=max_events)

    def spawn(self, gen, name: str = "") -> SimFuture:
        """Start a simulation process (for scripted multi-call scenarios)."""
        return self.kernel.spawn(gen, name=name)

    # ------------------------------------------------------------------ name space

    def bind_name(self, name: str, loid: LOID) -> None:
        """Publish ``loid`` in the single persistent name space."""
        self.context.bind(name, loid, replace=True)

    def lookup(self, name: str) -> LOID:
        """Resolve a context name to a LOID."""
        return self.context.lookup(name)

    # ----------------------------------------------------------------- applications

    def create_class(
        self,
        name: str,
        instance_factory: str = "",
        factory: Optional[Callable[..., LegionObjectImpl]] = None,
        superclass: Union[LOID, str, None] = None,
        **options: Any,
    ) -> Binding:
        """Derive a new user class (from LegionObject by default).

        ``factory`` (a callable) is registered in the implementation
        registry under ``instance_factory`` if given.  Returns the new
        class object's Binding and binds ``classes/<name>`` in the name
        space, so ``name`` is non-empty and not yet taken.
        """
        if not isinstance(name, str) or not name:
            raise InvalidArgument(f"class name {name!r}: must be a non-empty string")
        if f"classes/{name}" in self.context:
            raise InvalidArgument(f"class name {name!r}: classes/{name} is already bound")
        if factory is not None:
            if not instance_factory:
                instance_factory = f"app.{name}"
            self.services.impls.register(instance_factory, factory, replace=True)
        if instance_factory:
            options.setdefault("instance_factory", instance_factory)
        if superclass is None:
            super_loid = self.core.loid("LegionObject")
        elif isinstance(superclass, str):
            super_loid = self.lookup(superclass)
        else:
            super_loid = superclass
        binding: Binding = self.call(super_loid, "Derive", name, options)
        self.bind_name(f"classes/{name}", binding.loid)
        return binding

    def create_instance(
        self,
        cls: Union[LOID, str],
        context_name: Optional[str] = None,
        **hints: Any,
    ) -> Binding:
        """Create() an instance of ``cls``; optionally bind a context name."""
        class_loid = self.lookup(cls) if isinstance(cls, str) else cls
        binding: Binding = self.call(class_loid, "Create", hints)
        if context_name:
            self.bind_name(context_name, binding.loid)
        return binding

    # ------------------------------------------------------------------- metrics

    def reset_measurements(self) -> None:
        """Start a measurement phase: zero ``services.metrics`` (retired
        totals included) and ``network.stats``, and drop recorded spans.

        Nothing else moves: the clock, ``kernel.events_executed`` and each
        object's runtime, cache and agent stats keep counting.  A runtime's
        settlement identity (``requests_sent == replies_received + ...``)
        spans the phase boundary -- a request sent in the warm-up may
        settle in the measurement -- so reset those one by one, where a
        phase needs them from zero and nothing is in flight.
        """
        self.services.metrics.reset()
        self.network.stats.reset()
        if self.services.tracer is not None:
            self.services.tracer.clear()

    # ------------------------------------------------------------------- tracing

    def enable_tracing(self):
        """Install a fresh causal-trace recorder; returns it.

        Every message sent from now on carries a
        :class:`~repro.trace.context.TraceContext` and every invocation,
        resolution, dispatch, and activation records a span.
        """
        from repro.trace.recorder import SpanRecorder

        recorder = SpanRecorder(self.kernel)
        self.services.tracer = recorder
        self.network.tracer = recorder
        return recorder

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LegionSystem sites={len(self.sites)} "
            f"hosts={len(self.host_servers)} t={self.kernel.now:.1f}>"
        )
