"""Tests for Abstract/Private/Fixed flags and composite dispatch."""

import pytest

from repro import errors
from repro.core.class_types import ClassFlavor
from repro.core.composite import CompositeImpl
from repro.core.object_base import LegionObjectImpl, legion_method


class TestClassFlavor:
    def test_regular_allows_everything(self):
        flavor = ClassFlavor.REGULAR
        flavor.check_create("X")
        flavor.check_derive("X")
        flavor.check_inherit_from("X")

    def test_abstract_blocks_create_only(self):
        flavor = ClassFlavor.ABSTRACT
        with pytest.raises(errors.AbstractClassError):
            flavor.check_create("X")
        flavor.check_derive("X")
        flavor.check_inherit_from("X")

    def test_private_blocks_derive_only(self):
        flavor = ClassFlavor.PRIVATE
        flavor.check_create("X")
        with pytest.raises(errors.PrivateClassError):
            flavor.check_derive("X")

    def test_fixed_blocks_inherit_only(self):
        flavor = ClassFlavor.FIXED
        flavor.check_create("X")
        with pytest.raises(errors.FixedClassError):
            flavor.check_inherit_from("X")

    def test_combined_flags(self):
        flavor = ClassFlavor.ABSTRACT | ClassFlavor.FIXED
        with pytest.raises(errors.AbstractClassError):
            flavor.check_create("X")
        with pytest.raises(errors.FixedClassError):
            flavor.check_inherit_from("X")
        flavor.check_derive("X")


class PartA(LegionObjectImpl):
    def __init__(self):
        self.a_state = 1

    def persistent_attributes(self):
        return ["a_state"]

    @legion_method("string Who()")
    def who(self):
        return "A"

    @legion_method("string OnlyA()")
    def only_a(self):
        return "onlyA"


class PartB(LegionObjectImpl):
    def __init__(self):
        self.b_state = 2

    def persistent_attributes(self):
        return ["b_state"]

    @legion_method("string Who()")
    def who(self):
        return "B"

    @legion_method("string OnlyB()")
    def only_b(self):
        return "onlyB"


class TestComposite:
    def test_needs_parts(self):
        with pytest.raises(ValueError):
            CompositeImpl([])

    def test_chain_order_resolves_overrides(self):
        composite = CompositeImpl([PartA(), PartB()])
        export = composite.find_export("Who", 0)
        assert export.fn(composite) == "A"
        reversed_composite = CompositeImpl([PartB(), PartA()])
        assert reversed_composite.find_export("Who", 0).fn(reversed_composite) == "B"

    def test_union_of_methods(self):
        composite = CompositeImpl([PartA(), PartB()])
        assert composite.find_export("OnlyA", 0).fn(composite) == "onlyA"
        assert composite.find_export("OnlyB", 0).fn(composite) == "onlyB"
        iface = composite.get_interface()
        assert iface.has_method("OnlyA") and iface.has_method("OnlyB")

    def test_missing_method_none(self):
        composite = CompositeImpl([PartA()])
        assert composite.find_export("Nope", 0) is None

    def test_state_roundtrip_preserves_every_part(self):
        source = CompositeImpl([PartA(), PartB()])
        source.parts[0].a_state = 42
        source.parts[1].b_state = 99
        blob = source.save_state()
        target = CompositeImpl([PartA(), PartB()])
        target.restore_state(blob)
        assert target.parts[0].a_state == 42
        assert target.parts[1].b_state == 99

    def test_primary_part_policy_governs(self):
        from repro.security.mayi import DenyAll
        from repro.security.environment import CallEnvironment
        from repro.naming.loid import LOID

        gated = PartA()
        gated.mayi_policy = DenyAll()
        composite = CompositeImpl([gated, PartB()])
        env = CallEnvironment.originating(LOID.for_instance(1, 1))
        assert not composite.mayi_policy.may_i("Who", env)
