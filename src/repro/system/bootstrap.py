"""Bootstrap: bringing up the core objects (paper section 4.2.1).

"Legion contains a set of core objects and object types that implement the
mechanism by which Legion objects are created and activated.  For this
reason, the creation and activation of this set of objects must be carried
out by mechanisms different from those used for normal Legion objects ...
The core objects, including the core Abstract classes (LegionObject,
LegionClass, etc.), Host Objects, and Magistrates, are intended to be
started from the command line or shell script in the host operating
system.  The Abstract class objects are started exactly once -- when the
Legion system comes alive."

:func:`bootstrap_core` is that "exactly once": it constructs the six core
class objects directly (no magistrate, no host object -- they do not exist
yet), registers them with LegionClass, publishes their bindings in the core
table, and records the Fig. 7 relations (LegionClass is derived from
LegionObject; so are the other core Abstract classes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import BootstrapError
from repro.core.class_types import ClassFlavor
from repro.core.context import SystemServices
from repro.core.class_derivation import CLASS_OBJECT_FACTORY
from repro.core.legion_class import ClassObjectImpl
from repro.core.metaclass import LegionClassImpl
from repro.core.object_base import LegionObjectImpl
from repro.core.server import ObjectServer
from repro.binding.agent import BindingAgentImpl
from repro.metrics.counters import ComponentKind
from repro.naming.loid import (
    CLASS_ID_LEGION_BINDING_AGENT,
    CLASS_ID_LEGION_CLASS,
    CLASS_ID_LEGION_HOST,
    CLASS_ID_LEGION_MAGISTRATE,
    CLASS_ID_LEGION_OBJECT,
    CLASS_ID_LEGION_SCHEDULER,
    LOID,
)
from repro.scheduling.agent import (
    LeastLoadedSchedulingAgent,
    RandomSchedulingAgent,
    RoundRobinSchedulingAgent,
)

#: Role name → (class id, flavor).  All core classes are Abstract except
#: LegionClass, which must Create/Derive (it is the metaclass), and
#: LegionObject, which must Derive (every user class descends from it)
#: but never Create (it is Abstract in the instance sense).
CORE_CLASS_SPECS = {
    "LegionObject": (CLASS_ID_LEGION_OBJECT, ClassFlavor.ABSTRACT),
    "LegionClass": (CLASS_ID_LEGION_CLASS, ClassFlavor.REGULAR),
    "LegionHost": (CLASS_ID_LEGION_HOST, ClassFlavor.ABSTRACT),
    "LegionMagistrate": (CLASS_ID_LEGION_MAGISTRATE, ClassFlavor.ABSTRACT),
    "LegionBindingAgent": (CLASS_ID_LEGION_BINDING_AGENT, ClassFlavor.ABSTRACT),
    "LegionScheduler": (CLASS_ID_LEGION_SCHEDULER, ClassFlavor.ABSTRACT),
}


@dataclass
class CoreObjects:
    """The bootstrap result: the six core class-object servers by role."""

    servers: Dict[str, ObjectServer]

    def __getitem__(self, role: str) -> ObjectServer:
        return self.servers[role]

    @property
    def legion_class(self) -> LegionClassImpl:
        """The LegionClass implementation (for direct bring-up wiring)."""
        return self.servers["LegionClass"].impl  # type: ignore[return-value]

    def loid(self, role: str) -> LOID:
        """The LOID of a core class by role."""
        return self.servers[role].loid


def register_standard_factories(services: SystemServices) -> None:
    """Publish the implementations the core machinery itself needs.

    User applications register their own factories on top.
    """
    impls = services.impls
    if CLASS_OBJECT_FACTORY not in impls:
        impls.register(CLASS_OBJECT_FACTORY, ClassObjectImpl)
    for name, factory in [
        ("legion.binding-agent", BindingAgentImpl),
        ("legion.scheduler.round-robin", RoundRobinSchedulingAgent),
        ("legion.scheduler.random", RandomSchedulingAgent),
        ("legion.scheduler.least-loaded", LeastLoadedSchedulingAgent),
    ]:
        if name not in impls:
            impls.register(name, factory)


def start_out_of_band(
    services: SystemServices,
    loid: LOID,
    impl: LegionObjectImpl,
    host: int,
    kind: ComponentKind,
    name: str,
    cache_capacity: int,
) -> ObjectServer:
    """Start ``impl`` as ``loid`` on ``host`` "from outside Legion".

    No magistrate and no Host Object take part: this is the shell-script
    start of section 4.2.1 that every core object, standard class, Host
    Object, Magistrate and Binding Agent gets.  Making the object known
    to its class is the caller's next step.
    """
    return ObjectServer(
        services,
        loid,
        impl,
        host=host,
        component_kind=kind,
        component_name=name,
        cache_capacity=cache_capacity,
    )


def bootstrap_core(services: SystemServices, core_host: int) -> CoreObjects:
    """Start the core Abstract class objects on ``core_host``.

    Must run exactly once per system; raises :class:`BootstrapError` on a
    second attempt (the core table would already be populated).
    """
    if services.core_bindings:
        raise BootstrapError("core objects already bootstrapped")
    register_standard_factories(services)

    servers: Dict[str, ObjectServer] = {}
    for role, (class_id, flavor) in CORE_CLASS_SPECS.items():
        if role == "LegionClass":
            impl: ClassObjectImpl = LegionClassImpl()
            kind = ComponentKind.LEGION_CLASS
        else:
            impl = ClassObjectImpl(class_name=role, class_id=class_id, flavor=flavor)
            kind = ComponentKind.CLASS_OBJECT
        loid = LOID.for_class(class_id, services.secret)
        server = start_out_of_band(services, loid, impl, core_host, kind, role, 4096)
        servers[role] = server
        services.core_bindings[role] = server.binding()

    # The core table is complete: every object started from now on seeds
    # from it, and each core (started before it was) takes it once now.
    seed = services.core_seed = {
        binding.loid.identity: binding for binding in services.core_bindings.values()
    }
    for server in servers.values():
        identity = server.loid.identity
        server.runtime.seed_permanent(
            {key: binding for key, binding in seed.items() if key != identity}
        )

    # Register the cores with LegionClass so the responsibility walk of
    # section 4.1.3 terminates here, and record the Fig. 7 relations.
    legion_class = servers["LegionClass"].impl
    relations = services.relations
    legion_object_loid = servers["LegionObject"].loid
    for role, server in servers.items():
        legion_class.register_core_class(server.binding(), role)
        if role != "LegionObject":
            relations.record_kind_of(server.loid, legion_object_loid)

    return CoreObjects(servers=servers)
