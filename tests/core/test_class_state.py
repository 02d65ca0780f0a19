"""A class object is one object with one saved state, and a fixed export list.

Its collaborators -- the clone pool, the replica groups, derivation and
inheritance -- live in modules of their own, but their durable fields are
all in ``ClassObjectImpl.persistent_attributes()``: a SaveState /
RestoreState round trip answers every query as before.  The exported
names are pinned as well, so an export leaves or returns only on purpose.
"""

from repro.core.legion_class import CLASS_MANDATORY_INTERFACE, ClassObjectImpl
from repro.core.metaclass import LegionClassImpl
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl
from tests.invariants import live_impl

CLASS_EXPORTS = (
    "AddCandidateMagistrate", "AddReplica", "Clone", "CloneCount", "CloneEpoch",
    "Create", "CreateReplicated", "Delete", "Derive", "GetBinding",
    "GetClonePool", "GetImplementationSpec", "GetInstanceInterface",
    "GetInterface", "GetRow", "Iam", "InheritFrom", "MayI", "NoteActivated",
    "NoteCopied", "NoteDeactivated", "NoteMigrated", "PendingDispatches", "Ping",
    "RegisterOutOfBand", "ReportDeadReplica", "RestoreState", "RetireClone",
    "SaveState", "SetCandidateMagistrates", "SetSchedulingAgent",
    "SubscribeInvalidations",
)
LEGION_CLASS_EXPORTS = ("AllocateClassID", "GetCoreBinding", "LocateResponsible")


class Greeter(LegionObjectImpl):
    """A one-method base class for InheritFrom()."""

    @legion_method("string Greet()")
    def greet(self):
        return "hello"


def _build():
    system = LegionSystem.build([SiteSpec("east", hosts=3)], seed=5)
    base = system.create_class("Greeter", factory=Greeter)
    cls = system.create_class("Hot", factory=CounterImpl)
    system.call(cls.loid, "InheritFrom", base.loid)
    return system, cls


class TestOneSavedState:
    def test_persistent_attributes_in_order(self):
        assert ClassObjectImpl("C", 99).persistent_attributes() == [
            "class_name", "class_id", "instance_factory", "instance_init",
            "superclass", "candidate_magistrates", "scheduling_agent",
            "binding_ttl", "instance_component_kind", "instance_interface",
            "base_chain", "bases", "_next_sequence", "table", "clones",
            "_clone_rr", "clone_epoch",
        ]

    def test_round_trip_answers_every_query_as_before(self):
        system, cls = _build()
        instance = system.create_instance(cls.loid)
        group = system.call(cls.loid, "CreateReplicated", 2, "first", 1)
        system.call(cls.loid, "Clone")
        impl = live_impl(system, cls.loid)

        fresh = ClassObjectImpl("Blank", 0)
        fresh.loid, fresh.services, fresh.server = impl.loid, impl.services, impl.server
        fresh.restore_state(impl.save_state())

        for loid in (instance.loid, group.loid):
            assert fresh.get_row(loid) == impl.get_row(loid)
        assert fresh.get_row(group.loid).replicated
        assert fresh.get_clone_pool() == impl.get_clone_pool()
        assert len(fresh.get_clone_pool()[1]) == 2
        assert fresh.get_clone_epoch() == impl.get_clone_epoch()
        restored = fresh.get_instance_interface()
        assert restored.equivalent_to(impl.get_instance_interface())
        assert restored.has_method("Greet")

    def test_inherited_interface_survives_deactivation(self):
        # Regression: instance_interface was not persisted, so a class
        # reactivated from its OPR forgot what InheritFrom() had merged.
        system, cls = _build()
        assert system.call(cls.loid, "GetInstanceInterface").has_method("Greet")
        row = system.call(system.core.loid("LegionObject"), "GetRow", cls.loid)
        system.call(row.current_magistrates[0], "Deactivate", cls.loid)
        assert system.call(cls.loid, "GetInstanceInterface").has_method("Greet")
        instance = system.create_instance(cls.loid)
        assert system.call(instance.loid, "Greet") == "hello"


def method_names(interface):
    """An interface's distinct method names, sorted."""
    return tuple(sorted({sig.name for sig in interface}))


class TestExportsArePinned:
    def test_class_mandatory_interface(self):
        assert method_names(CLASS_MANDATORY_INTERFACE) == CLASS_EXPORTS

    def test_legion_class(self):
        assert method_names(LegionClassImpl.exported_interface()) == tuple(
            sorted(CLASS_EXPORTS + LEGION_CLASS_EXPORTS)
        )
