"""LegionClassImpl: the root metaclass object (sections 2.1.3, 3.2, 4.1.3).

LegionClass is one of the paper's few "single logical Legion objects":

* it "is responsible for handing out unique Class Identifiers to each new
  class" (section 3.2);
* it "can be the authority for locating class objects.  LegionClass does
  not directly maintain the bindings; instead, it delegates that
  responsibility to other class objects.  To do so, LegionClass maintains
  a mapping of LOID pairs.  The existence of pair <X,Y> indicates that X
  is responsible for locating Y" (section 4.1.3);
* it is itself a class object -- "LegionClass is derived from
  LegionObject; thus, classes are objects in Legion" -- and maintains
  bindings for the objects it is directly responsible for, terminating
  the recursive class-location walk.

Scalability note (section 5.2.2): because class bindings change slowly,
responsibility pairs and class bindings are aggressively cacheable;
experiment E3 shows a combining tree of Binding Agents flattening the
request load measured at this object.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import UnknownObject
from repro.core.class_types import ClassFlavor
from repro.core.legion_class import ClassObjectImpl
from repro.core.object_base import legion_method
from repro.naming.binding import Binding
from repro.naming.loid import (
    CLASS_ID_LEGION_CLASS,
    FIRST_USER_CLASS_ID,
    LOID,
)


class LegionClassImpl(ClassObjectImpl):
    """The LegionClass core object.  See module docstring."""

    def __init__(
        self,
        candidate_magistrates: Optional[List[LOID]] = None,
        scheduling_agent: Optional[LOID] = None,
        next_class_id: int = FIRST_USER_CLASS_ID,
    ) -> None:
        super().__init__(
            class_name="LegionClass",
            class_id=CLASS_ID_LEGION_CLASS,
            flavor=ClassFlavor.REGULAR,
            instance_factory="legion.class-object",
            candidate_magistrates=candidate_magistrates,
            scheduling_agent=scheduling_agent,
        )
        self._next_class_id = next_class_id
        #: The responsibility map: created class id → creator class LOID,
        #: i.e. pair <X, Y> stored as responsible_for[Y.class_id] = X.
        self.responsible_for: Dict[int, LOID] = {}
        #: Names registered at allocation (diagnostics / directory).
        self.class_names: Dict[int, str] = {}
        #: Bindings for objects LegionClass is *directly* responsible for
        #: (the core Abstract classes started at bootstrap).  This is where
        #: the recursive location process of section 4.1.3 terminates.
        self.direct_bindings: Dict[int, Binding] = {}

    def persistent_attributes(self) -> List[str]:
        return super().persistent_attributes() + [
            "_next_class_id",
            "responsible_for",
            "class_names",
        ]

    # ---------------------------------------------------------------- allocation

    @legion_method("int AllocateClassID(LOID, string)")
    def allocate_class_id(self, creator: LOID, name: str) -> int:
        """Hand out a fresh unique Class Identifier and record <creator, new>.

        "When a new class object D is created, the creating class C
        contacts LegionClass for a new Class Identifier ...  At this time,
        LegionClass can record that C is responsible for locating D."
        """
        class_id = self._next_class_id
        self._next_class_id += 1
        self.responsible_for[class_id] = creator
        self.class_names[class_id] = name
        return class_id

    # ----------------------------------------------------------------- location

    @legion_method("LOID LocateResponsible(LOID)")
    def locate_responsible(self, loid: LOID) -> LOID:
        """Who is responsible for locating ``loid``?

        For a non-class object the answer is pure field surgery (zero the
        class-specific field); for a class object the responsibility map
        answers.  Returns our own LOID for objects we are directly
        responsible for -- the walk's termination condition.
        """
        if not loid.is_class:
            class_id, _zero = loid.class_identity()
            return LOID.for_class(class_id, self.services.secret)
        if loid.class_id in self.direct_bindings:
            return self.loid
        creator = self.responsible_for.get(loid.class_id)
        if creator is None:
            raise UnknownObject(
                f"LegionClass never allocated class id {loid.class_id}"
            )
        return creator

    @legion_method("binding GetCoreBinding(LOID)")
    def get_core_binding(self, loid: LOID) -> Binding:
        """The binding of an object LegionClass directly maintains.

        "LegionClass simply hands out the appropriate binding which, as a
        class object, it is responsible for maintaining."  Raises for
        anything not directly registered (use LocateResponsible + the
        responsible class's GetBinding for those).
        """
        binding = self.direct_bindings.get(loid.class_id)
        if binding is None or binding.loid.identity != loid.identity:
            # Fall back to the ordinary class-object table (instances and
            # subclasses LegionClass itself created).
            row = self.table.find(loid)
            if row is not None and row.object_address is not None and not row.deleted:
                return self._binding_for(loid, row.object_address)
            raise UnknownObject(
                f"LegionClass maintains no direct binding for {loid}"
            )
        return binding

    # ---------------------------------------------------------------- bootstrap

    def register_core_class(self, binding: Binding, name: str) -> None:
        """Record a bootstrap-started core class (section 4.2.1).

        The core Abstract classes are "started exactly once -- when the
        Legion system comes alive" -- outside the normal Create()/Derive()
        path, so bootstrap registers them here to make them locatable.
        """
        class_id = binding.loid.class_id
        self.direct_bindings[class_id] = binding
        self.class_names.setdefault(class_id, name)
        if class_id >= self._next_class_id:
            self._next_class_id = class_id + 1
