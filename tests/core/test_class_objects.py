"""Class-object behaviour against a live system (sections 2.1, 3.7)."""

import pytest

from repro import errors
from repro.naming.binding import Binding
from repro.naming.loid import LOID

from tests.invariants import live_impl


class TestCreate:
    def test_create_returns_working_binding(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        assert isinstance(binding, Binding)
        assert system.call(binding.loid, "Increment", 3) == 3

    def test_instance_loids_carry_class_id(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        assert binding.loid.class_id == cls.loid.class_id
        assert not binding.loid.is_class

    def test_create_without_factory_rejected(self, legion):
        system, _cls = legion
        bare = system.create_class("NoImplClass")
        with pytest.raises(errors.ObjectModelError):
            system.call(bare.loid, "Create", {})

    def test_create_with_init_hints(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {"init": {"start": 100}})
        assert system.call(binding.loid, "Get") == 100

    def test_magistrate_hint_respected(self, legion):
        system, cls = legion
        magistrate = system.magistrates[system.sites[1].name].loid
        binding = system.call(cls.loid, "Create", {"magistrate": magistrate})
        row = system.call(cls.loid, "GetRow", binding.loid)
        assert row.current_magistrates == [magistrate]

    def test_bad_magistrate_hint_rejected(self, legion):
        system, cls = legion
        # Restrict candidates, then hint an outsider.
        restricted = system.create_class(
            "Restricted",
            instance_factory="app.Counter",
            candidate_magistrates=[system.magistrates[system.sites[0].name].loid],
        )
        outsider = system.magistrates[system.sites[1].name].loid
        with pytest.raises(errors.SchedulingError):
            system.call(restricted.loid, "Create", {"magistrate": outsider})


class TestGetBinding:
    def test_active_object_resolves_from_table(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        again = system.call(cls.loid, "GetBinding", binding.loid)
        assert again.address == binding.address

    def test_unknown_object_rejected(self, legion):
        system, cls = legion
        from repro.naming.loid import LOID

        ghost = LOID.for_instance(cls.loid.class_id, 999999, system.services.secret)
        with pytest.raises(errors.UnknownObject):
            system.call(cls.loid, "GetBinding", ghost)

    def test_deleted_object_reports_deletion(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        system.call(cls.loid, "Delete", binding.loid)
        with pytest.raises(errors.ObjectDeleted):
            system.call(cls.loid, "GetBinding", binding.loid)

    def test_inert_object_activated_on_get_binding(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        system.call(binding.loid, "Increment", 7)
        row = system.call(cls.loid, "GetRow", binding.loid)
        system.call(row.current_magistrates[0], "Deactivate", binding.loid)
        fresh = system.call(cls.loid, "GetBinding", binding.loid)
        assert fresh.address != binding.address or True  # address may differ
        assert system.call(binding.loid, "Get") == 7  # state survived


class TestDelete:
    def test_delete_is_idempotent(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        system.call(cls.loid, "Delete", binding.loid)
        system.call(cls.loid, "Delete", binding.loid)

    def test_delete_removes_active_process(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        system.call(cls.loid, "Delete", binding.loid)
        with pytest.raises(errors.LegionError):
            system.call(binding.loid, "Ping")

    def test_delete_never_created_rejected(self, legion):
        system, cls = legion
        from repro.naming.loid import LOID

        ghost = LOID.for_instance(cls.loid.class_id, 888888, system.services.secret)
        with pytest.raises(errors.UnknownObject):
            system.call(cls.loid, "Delete", ghost)


class TestReflectiveHooks:
    def test_set_scheduling_agent_field(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        agent_loid = system.agents[system.sites[0].name].loid
        system.call(cls.loid, "SetSchedulingAgent", binding.loid, agent_loid)
        row = system.call(cls.loid, "GetRow", binding.loid)
        assert row.scheduling_agent == agent_loid

    def test_set_candidate_magistrates_field(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        only = [system.magistrates[system.sites[0].name].loid]
        system.call(cls.loid, "SetCandidateMagistrates", binding.loid, only)
        row = system.call(cls.loid, "GetRow", binding.loid)
        assert row.candidate_magistrates == only


    def test_rows_share_the_candidate_list_their_class_had(self, fresh_legion):
        """A row holds its class's candidate list, not a copy; adding a
        candidate replaces the class's list, so the rows created before
        still read the list they were created with."""
        system, cls = fresh_legion
        impl = live_impl(system, cls.loid)
        before = impl.candidate_magistrates
        old = [system.create_instance(cls.loid).loid for _ in range(5)]
        rows = [system.call(cls.loid, "GetRow", loid) for loid in old]
        assert all(row.candidate_magistrates is before for row in rows)
        answers = [list(row.candidate_magistrates) for row in rows]

        newcomer = LOID.for_instance(cls.loid.class_id, 777777, system.services.secret)
        system.call(cls.loid, "AddCandidateMagistrate", newcomer)
        after = impl.candidate_magistrates
        assert after == before + [newcomer] and before is not after
        home = system.magistrates[system.sites[0].name].loid
        young = system.create_instance(cls.loid, magistrate=home).loid
        assert system.call(cls.loid, "GetRow", young).candidate_magistrates is after
        rows = [system.call(cls.loid, "GetRow", loid) for loid in old]
        assert [row.candidate_magistrates for row in rows] == answers


class TestMetaclass:
    def test_class_ids_unique_and_monotone(self, legion):
        system, _cls = legion
        legion_class = system.core.legion_class
        a = legion_class.allocate_class_id(system.core.loid("LegionObject"), "A")
        b = legion_class.allocate_class_id(system.core.loid("LegionObject"), "B")
        assert b == a + 1
        assert legion_class.class_names[a] == "A"

    def test_responsibility_pairs_recorded_on_derive(self, legion):
        system, cls = legion
        sub = system.call(cls.loid, "Derive", "RespSub", {})
        legion_class = system.core.legion_class
        assert legion_class.responsible_for[sub.loid.class_id] == cls.loid

    def test_locate_responsible_for_instances_is_field_surgery(self, legion):
        system, cls = legion
        binding = system.call(cls.loid, "Create", {})
        legion_class_loid = system.core.loid("LegionClass")
        responsible = system.call(
            legion_class_loid, "LocateResponsible", binding.loid
        )
        assert responsible.identity == cls.loid.identity

    def test_locate_responsible_for_core_is_self(self, legion):
        system, _cls = legion
        legion_class_loid = system.core.loid("LegionClass")
        responsible = system.call(
            legion_class_loid, "LocateResponsible", system.core.loid("LegionHost")
        )
        assert responsible == legion_class_loid

    def test_locate_unknown_class_rejected(self, legion):
        system, _cls = legion
        from repro.naming.loid import LOID

        ghost = LOID.for_class(999999, system.services.secret)
        with pytest.raises(errors.UnknownObject):
            system.call(system.core.loid("LegionClass"), "LocateResponsible", ghost)

    def test_get_core_binding(self, legion):
        system, _cls = legion
        binding = system.call(
            system.core.loid("LegionClass"),
            "GetCoreBinding",
            system.core.loid("LegionMagistrate"),
        )
        assert binding.loid == system.core.loid("LegionMagistrate")


class TestDeletedRows:
    """A deleted instance leaves no row: the class tells a deleted object
    from one it never created by the sequence numbers it has issued."""

    def test_a_deleted_instance_leaves_no_row(self, fresh_legion):
        system, cls = fresh_legion
        impl = live_impl(system, cls.loid)
        binding = system.call(cls.loid, "Create", {})
        system.call(cls.loid, "Delete", binding.loid)
        assert impl.table.find(binding.loid) is None

    def test_both_errors_locally(self, fresh_legion):
        system, cls = fresh_legion
        impl = live_impl(system, cls.loid)
        binding = system.call(cls.loid, "Create", {})
        system.call(cls.loid, "Delete", binding.loid)
        unissued = LOID.for_instance(cls.loid.class_id, impl._next_sequence, system.services.secret)
        foreign = LOID.for_instance(cls.loid.class_id + 1, 1, system.services.secret)
        with pytest.raises(errors.ObjectDeleted):
            impl._live_row(binding.loid)
        with pytest.raises(errors.ObjectDeleted):
            next(impl.get_binding(binding.loid))
        for ghost in (unissued, foreign):
            with pytest.raises(errors.UnknownObject):
                impl._live_row(ghost)
            with pytest.raises(errors.UnknownObject):
                next(impl.get_binding(ghost))

    def test_both_errors_over_the_wire(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        system.call(cls.loid, "Delete", binding.loid)
        client = system.new_client("remote", site="doe")
        issued = system.call(cls.loid, "Create", {}, client=client)
        unissued = LOID.for_instance(
            cls.loid.class_id, issued.loid.class_specific + 1, system.services.secret
        )
        with pytest.raises(errors.ObjectDeleted):
            system.call(cls.loid, "GetBinding", binding.loid, client=client)
        system.call(cls.loid, "Delete", binding.loid, client=client)  # idempotent
        with pytest.raises(errors.UnknownObject):
            system.call(cls.loid, "GetBinding", unissued, client=client)
        with pytest.raises(errors.UnknownObject):
            system.call(cls.loid, "Delete", unissued, client=client)

    def test_a_clone_keeps_its_own_sequence(self, fresh_legion):
        system, cls = fresh_legion
        clone = system.call(cls.loid, "Clone")
        made = system.call(cls.loid, "Create", {})  # delegated to the clone
        assert made.loid.class_id == clone.loid.class_id
        system.call(clone.loid, "Delete", made.loid)
        with pytest.raises(errors.ObjectDeleted):
            system.call(clone.loid, "GetBinding", made.loid)
        # The parent never issued that sequence number under its own id.
        with pytest.raises(errors.UnknownObject):
            system.call(cls.loid, "GetBinding", made.loid)

    def test_rows_track_live_objects_over_create_delete_cycles(self, fresh_legion):
        system, cls = fresh_legion
        impl = live_impl(system, cls.loid)
        kept = system.call(cls.loid, "Create", {})
        rows = len(impl.table._rows)
        for _ in range(25):
            doomed = system.call(cls.loid, "Create", {})
            system.call(cls.loid, "Delete", doomed.loid)
        assert len(impl.table._rows) == rows == len(impl.table.instances())
        assert kept.loid in impl.table
