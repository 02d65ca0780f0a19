"""repro: a reproduction of "The Core Legion Object Model" (HPDC 1996).

Lewis & Grimshaw's paper specifies the core objects of Legion -- a
wide-area, object-based metacomputing system -- and argues its naming,
binding, and management machinery scales.  This package implements the
complete model over a from-scratch discrete-event simulation of a
wide-area testbed, plus the experiments that check the paper's
scalability claims.

Quickstart
----------
::

    from repro import LegionSystem, SiteSpec, LegionObjectImpl, legion_method

    class Counter(LegionObjectImpl):
        def __init__(self, start=0):
            self.value = start
        def persistent_attributes(self):
            return ["value"]
        @legion_method("int Increment(int)")
        def increment(self, amount):
            self.value += amount
            return self.value

    system = LegionSystem.build([SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)])
    counter_class = system.create_class("Counter", factory=Counter)
    counter = system.create_instance(counter_class.loid, context_name="demo/counter")
    print(system.call("demo/counter", "Increment", 5))   # -> 5

See DESIGN.md for the full system inventory and EXPERIMENTS.md for the
paper-claim vs. measured results.
"""

from repro.binding.agent import BindingAgentImpl
from repro.binding.hierarchy import AgentTree, build_agent_tree
from repro.core.class_types import ClassFlavor
from repro.core.context import SystemServices
from repro.core.legion_class import ClassObjectImpl
from repro.core.metaclass import LegionClassImpl
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.core.relations import RelationGraph, RelationKind
from repro.core.server import ObjectServer
from repro.errors import LegionError
from repro.hosts.host_object import HostObjectImpl
from repro.idl import (
    Interface,
    MethodSignature,
    parse_interface,
    parse_signature,
)
from repro.naming.context_object import ContextObjectImpl
from repro.jurisdiction.jurisdiction import Jurisdiction
from repro.jurisdiction.magistrate import MagistrateImpl, ObjectState
from repro.naming.binding import Binding
from repro.naming.cache import BindingCache
from repro.naming.context import Context
from repro.naming.loid import LOID
from repro.net.address import AddressSemantic, ObjectAddress, ObjectAddressElement
from repro.net.latency import LatencyModel, LinkClass
from repro.persistence.opr import OPRecord, PersistentAddress
from repro.security.environment import CallEnvironment
from repro.security.mayi import ACLPolicy, AllowAll, DenyAll, MayIPolicy, TrustSetPolicy
from repro.simkernel.kernel import SimKernel, Timeout
from repro.system.legion import LegionSystem, SiteSpec

__version__ = "1.0.0"

__all__ = [
    "AddressSemantic",
    "AgentTree",
    "ACLPolicy",
    "AllowAll",
    "Binding",
    "BindingAgentImpl",
    "BindingCache",
    "build_agent_tree",
    "CallEnvironment",
    "ClassFlavor",
    "ClassObjectImpl",
    "Context",
    "ContextObjectImpl",
    "DenyAll",
    "HostObjectImpl",
    "Interface",
    "Jurisdiction",
    "LegionClassImpl",
    "LegionError",
    "LegionObjectImpl",
    "LegionSystem",
    "legion_method",
    "LOID",
    "LatencyModel",
    "LinkClass",
    "MagistrateImpl",
    "MayIPolicy",
    "MethodSignature",
    "ObjectAddress",
    "ObjectAddressElement",
    "ObjectServer",
    "ObjectState",
    "OPRecord",
    "PersistentAddress",
    "parse_interface",
    "parse_signature",
    "RelationGraph",
    "RelationKind",
    "SimKernel",
    "SiteSpec",
    "SystemServices",
    "Timeout",
    "TrustSetPolicy",
]
