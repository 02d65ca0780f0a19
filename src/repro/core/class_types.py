"""The special Legion class types: Abstract, Private, Fixed (section 2.1.2).

"The creators of a Legion class may overload or redefine any of Create(),
Derive(), and InheritFrom() to be possibly empty member functions":

* **Abstract** -- empty Create(): no direct instances can exist;
* **Private** -- empty Derive(): no derived classes, just instances;
* **Fixed** -- empty InheritFrom(): inherits only from its superclass.

A class can combine flags (an Abstract *and* Fixed class is a pure
interface node of the hierarchy, like the core LegionHost).
"""

from __future__ import annotations

import enum

from repro.errors import (
    AbstractClassError,
    FixedClassError,
    PrivateClassError,
)


class ClassFlavor(enum.Flag):
    """Bit flags marking which class-mandatory functions are empty."""

    REGULAR = 0
    ABSTRACT = enum.auto()
    PRIVATE = enum.auto()
    FIXED = enum.auto()

    def check_create(self, class_name: str) -> None:
        """Raise if Create() is empty for this flavor."""
        if self & ClassFlavor.ABSTRACT:
            raise AbstractClassError(
                f"class {class_name} is Abstract: Create() is empty, "
                "no direct instances can exist"
            )

    def check_derive(self, class_name: str) -> None:
        """Raise if Derive() is empty for this flavor."""
        if self & ClassFlavor.PRIVATE:
            raise PrivateClassError(
                f"class {class_name} is Private: Derive() is empty, "
                "it can have no derived classes"
            )

    def check_inherit_from(self, class_name: str) -> None:
        """Raise if InheritFrom() is empty for this flavor."""
        if self & ClassFlavor.FIXED:
            raise FixedClassError(
                f"class {class_name} is Fixed: InheritFrom() is empty, "
                "it inherits only from its superclass"
            )
