"""Jurisdiction splitting (paper section 2.2)."""

import pytest

from repro import errors
from repro.jurisdiction.magistrate import ObjectState
from repro.jurisdiction.split import split_jurisdiction
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl


@pytest.fixture
def loaded_system():
    """A one-site system (4 hosts) with objects on every host."""
    system = LegionSystem.build([SiteSpec("big", hosts=4)], seed=21)
    cls = system.create_class("Counter", factory=CounterImpl)
    objects = []
    for host_loid in system.jurisdictions["big"].host_objects:
        objects.append(
            system.call(
                cls.loid,
                "Create",
                {"magistrate": system.magistrates["big"].loid, "host": host_loid},
            )
        )
    for i, binding in enumerate(objects):
        system.call(binding.loid, "Increment", i + 1)
    return system, cls, objects


class TestSplit:
    def test_resources_partition(self, loaded_system):
        system, _cls, _objects = loaded_system
        new_server = split_jurisdiction(system, "big")
        old_j = system.jurisdictions["big"]
        new_j = system.jurisdictions["big-split"]
        assert len(old_j.host_objects) == 2
        assert len(new_j.host_objects) == 2
        assert not old_j.host_ids & new_j.host_ids
        assert new_j.parent is old_j  # hierarchy (Fig. 10)
        assert new_j.magistrate == new_server.loid

    def test_objects_follow_their_hosts(self, loaded_system):
        system, cls, objects = loaded_system
        new_server = split_jurisdiction(system, "big")
        # The 4 counters split evenly by host; the Counter *class object*
        # (also managed, on whichever host it landed) follows its host too.
        placements = [
            system.call(cls.loid, "GetRow", b.loid).current_magistrates[0]
            for b in objects
        ]
        assert placements.count(new_server.loid) == 2
        assert placements.count(system.magistrates["big"].loid) == 2
        # Every object still answers, with state intact.
        for i, binding in enumerate(objects):
            assert system.call(binding.loid, "Get") == i + 1

    def test_moved_objects_report_new_magistrate(self, loaded_system):
        system, cls, objects = loaded_system
        new_server = split_jurisdiction(system, "big")
        moved = [
            b
            for b in objects
            if system.call(cls.loid, "GetRow", b.loid).current_magistrates
            == [new_server.loid]
        ]
        assert len(moved) == 2
        # Re-referencing a moved object activates it under the NEW
        # magistrate, in the new jurisdiction's host set.
        target = moved[0]
        system.call(target.loid, "Ping")
        assert (
            system.call(new_server.loid, "GetObjectState", target.loid)
            is ObjectState.ACTIVE
        )

    def test_new_magistrate_registered_with_class(self, loaded_system):
        system, _cls, _objects = loaded_system
        new_server = split_jurisdiction(system, "big")
        mag_cls = system.standard_classes["StandardMagistrate"].impl
        assert new_server.loid in mag_cls.table

    def test_new_magistrate_receives_new_creations(self, loaded_system):
        system, cls, _objects = loaded_system
        new_server = split_jurisdiction(system, "big")
        # Existing classes snapshot their candidate lists at Derive time;
        # the reflective hook extends them to the split-off magistrate.
        system.call(cls.loid, "AddCandidateMagistrate", new_server.loid)
        rows = [
            system.call(cls.loid, "GetRow", system.call(cls.loid, "Create", {}).loid)
            for _ in range(4)
        ]
        magistrates_used = {r.current_magistrates[0] for r in rows}
        assert new_server.loid in magistrates_used

    def test_degenerate_splits_rejected(self, loaded_system):
        system, _cls, _objects = loaded_system
        hosts = system.jurisdictions["big"].host_objects
        with pytest.raises(errors.LegionError):
            split_jurisdiction(system, "big", hosts_to_move=list(hosts))
        with pytest.raises(errors.LegionError):
            split_jurisdiction(system, "big", hosts_to_move=[])

    def test_duplicate_name_rejected(self, loaded_system):
        system, _cls, _objects = loaded_system
        split_jurisdiction(system, "big")
        with pytest.raises(errors.LegionError):
            split_jurisdiction(system, "big", new_name="big-split")

    def test_split_relieves_magistrate_load(self, loaded_system):
        """The paper's motivation: the split takes load off the magistrate."""
        from repro.metrics.counters import ComponentId, ComponentKind

        system, cls, objects = loaded_system
        new_server = split_jurisdiction(system, "big")
        system.reset_measurements()
        # Deactivate/reactivate everything: lifecycle load now splits.
        for binding in objects:
            row = system.call(cls.loid, "GetRow", binding.loid)
            magistrate = row.current_magistrates[0]
            system.call(magistrate, "Deactivate", binding.loid)
            system.call(magistrate, "Activate", binding.loid)
        metrics = system.services.metrics
        old_load = metrics.get(ComponentId(ComponentKind.MAGISTRATE, "big"))
        new_load = metrics.get(ComponentId(ComponentKind.MAGISTRATE, "big-split"))
        assert old_load > 0 and new_load > 0
        total = old_load + new_load
        assert old_load < total  # strictly shared, not all on the old one
