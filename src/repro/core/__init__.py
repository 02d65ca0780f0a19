"""The core Legion object model (paper sections 2, 3.7, 4.1-4.2).

This package implements the paper's primary contribution: the model of
cooperating core objects.  Its pieces:

* :mod:`repro.core.method` -- MethodInvocation / MethodResult envelopes;
  non-blocking method invocation as data.
* :mod:`repro.core.object_base` -- :class:`LegionObjectImpl`, the base of
  every object implementation, exporting the object-mandatory member
  functions (MayI, Iam, Ping, GetInterface, SaveState, RestoreState).
* :mod:`repro.core.runtime` -- the per-object Legion-aware communication
  layer: binding cache, Binding Agent consultation, stale-binding
  detection and refresh (section 4.1.4).
* :mod:`repro.core.server` -- the dispatch loop hosting an implementation
  at a network endpoint; accepts methods in any order, each invocation in
  its own simulated process.
* :mod:`repro.core.table` -- the class object's logical table (Fig. 16).
* :mod:`repro.core.legion_class` -- class objects with the class-mandatory
  member functions (Create, Derive, InheritFrom, Delete, GetBinding,
  GetInterface) and the Abstract / Private / Fixed class types; its
  collaborators :mod:`repro.core.class_derivation` (Derive, InheritFrom),
  :mod:`repro.core.class_clones` (the clone pool) and
  :mod:`repro.core.class_replicas` (replica groups) are mixed into it.
* :mod:`repro.core.metaclass` -- LegionClass itself: class-identifier
  allocation and the responsibility pairs used to locate class objects
  (section 4.1.3).
* :mod:`repro.core.relations` -- the is-a / kind-of / inherits-from
  relation graph (Fig. 2).
"""

from repro.core.class_types import ClassFlavor
from repro.core.context import SystemServices
from repro.core.legion_class import ClassObjectImpl, CLASS_MANDATORY_INTERFACE
from repro.core.metaclass import LegionClassImpl
from repro.core.method import InvocationContext, MethodInvocation, MethodResult
from repro.core.object_base import (
    LegionObjectImpl,
    OBJECT_MANDATORY_INTERFACE,
    legion_method,
)
from repro.core.relations import RelationGraph, RelationKind
from repro.core.runtime import LegionRuntime
from repro.core.server import ObjectServer
from repro.core.table import LogicalTable, TableRow

__all__ = [
    "ClassFlavor",
    "SystemServices",
    "ClassObjectImpl",
    "CLASS_MANDATORY_INTERFACE",
    "LegionClassImpl",
    "InvocationContext",
    "MethodInvocation",
    "MethodResult",
    "LegionObjectImpl",
    "OBJECT_MANDATORY_INTERFACE",
    "legion_method",
    "RelationGraph",
    "RelationKind",
    "LegionRuntime",
    "ObjectServer",
    "LogicalTable",
    "TableRow",
]
