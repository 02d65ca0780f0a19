"""System-wide invariants the paper mandates, checked over a live build.

These are the sentences of the paper that must hold *everywhere*, not in
one scenario: mandatory interfaces, the single-class rule, the rooting of
every class at LegionObject, and the LOID conventions.
"""

import pytest

from repro.core.legion_class import CLASS_MANDATORY_INTERFACE
from repro.core.object_base import OBJECT_MANDATORY_INTERFACE
from repro.workloads.apps import KVStoreImpl


@pytest.fixture(scope="module")
def populated(legion):
    """The shared system, enriched with a deeper class tree + instances."""
    system, counter_cls = legion
    kv_cls = system.create_class("InvKV", factory=KVStoreImpl)
    sub = system.call(counter_cls.loid, "Derive", "InvSub", {})
    subsub = system.call(sub.loid, "Derive", "InvSubSub", {})
    instances = [
        system.call(counter_cls.loid, "Create", {}),
        system.call(kv_cls.loid, "Create", {}),
        system.call(sub.loid, "Create", {}),
        system.call(subsub.loid, "Create", {}),
    ]
    classes = [counter_cls.loid, kv_cls.loid, sub.loid, subsub.loid]
    return system, classes, instances


class TestMandatoryInterfaces:
    def test_every_instance_exports_object_mandatory(self, populated):
        system, _classes, instances = populated
        for binding in instances:
            live = system.call(binding.loid, "GetInterface")
            assert live.conforms_to(OBJECT_MANDATORY_INTERFACE), str(binding.loid)

    def test_every_class_object_exports_class_mandatory(self, populated):
        system, classes, _instances = populated
        all_class_loids = list(classes) + [
            system.core.loid(role) for role in system.core.servers
        ]
        for loid in all_class_loids:
            live = system.call(loid, "GetInterface")
            assert live.conforms_to(CLASS_MANDATORY_INTERFACE), str(loid)
            # "LegionClass is derived from LegionObject; thus, classes are
            # objects in Legion": class objects are objects too.
            assert live.conforms_to(OBJECT_MANDATORY_INTERFACE), str(loid)

    def test_class_mandatory_names_match_the_paper(self):
        for name in ("Create", "Derive", "InheritFrom", "Delete", "GetBinding", "GetInterface"):
            assert CLASS_MANDATORY_INTERFACE.has_method(name), name


class TestRelationsInvariants:
    def test_every_class_roots_at_legion_object(self, populated):
        system, classes, _instances = populated
        relations = system.services.relations
        legion_object = system.core.loid("LegionObject")
        for loid in [*classes, *(s.loid for s in system.standard_classes.values())]:
            root = loid
            while relations.superclass_of(root) is not None:
                root = relations.superclass_of(root)
            assert root == legion_object, str(loid)

    def test_every_instance_has_exactly_one_class(self, populated):
        system, _classes, instances = populated
        relations = system.services.relations
        for binding in instances:
            assert relations.class_of(binding.loid) is not None

    def test_the_only_sink_is_legion_object(self, populated):
        system, _classes, _instances = populated
        assert system.services.relations.sinks() == [
            system.core.loid("LegionObject")
        ]


class TestLOIDConventions:
    def test_class_specific_zero_iff_class(self, populated):
        system, classes, instances = populated
        for loid in classes:
            assert loid.class_specific == 0 and loid.is_class
        for binding in instances:
            assert binding.loid.class_specific != 0 and not binding.loid.is_class

    def test_instances_carry_their_class_id(self, populated):
        system, _classes, instances = populated
        relations = system.services.relations
        for binding in instances:
            cls = relations.class_of(binding.loid)
            assert binding.loid.class_id == cls.class_id

    def test_every_loid_key_verifies_under_the_system_secret(self, populated):
        system, classes, instances = populated
        secret = system.services.secret
        for loid in classes:
            assert loid.verify_key(secret)
        for binding in instances:
            assert binding.loid.verify_key(secret)


class TestLogicalTableInvariants:
    def test_rows_exist_for_every_created_object(self, populated):
        system, classes, instances = populated
        relations = system.services.relations
        for binding in instances:
            cls = relations.class_of(binding.loid)
            row = system.call(cls, "GetRow", binding.loid)
            assert row.loid == binding.loid
            assert row.current_magistrates, "created objects have a magistrate"

    def test_active_rows_addresses_actually_answer(self, populated):
        system, classes, _instances = populated
        for class_loid in classes:
            server = None
            # Reach the class impl directly for table introspection.
            for host_server in system.host_servers.values():
                entry = host_server.impl.processes.find(class_loid)
                if entry is not None:
                    server = entry.server
            if server is None:
                continue
            for row in server.impl.table:
                if row.object_address is not None:
                    assert system.call(row.loid, "Ping") == "pong"
