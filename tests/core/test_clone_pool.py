"""Clone-pool mechanics: round-robin normalization, epochs, RetireClone.

Two regressions are pinned here: ``_clone_rr`` was never re-bounded when
the clone list shrank, so after retirements the modulo restart skewed which
survivor soaked up the next burst (and the index silently pointed past the
pool); and Delete() of a clone left it in the pool, so every delegated
Create() failed on the deleted object.  ``clone_pool_violations`` checks
both at the end of each test.
"""

import pytest

from repro.errors import UnknownObject
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl
from tests.invariants import clone_pool_violations, live_impl


def _build(seed=5):
    system = LegionSystem.build([SiteSpec("east", hosts=3)], seed=seed)
    cls = system.create_class("Hot", factory=CounterImpl)
    return system, cls


def _assert_pool_sound(system, cls):
    assert clone_pool_violations(live_impl(system, cls.loid)) == []


class TestCloneRoundRobin:
    def test_rr_index_is_rebounded_when_the_pool_shrinks(self):
        system, cls = _build()
        clones = [system.call(cls.loid, "Clone") for _ in range(3)]
        impl = live_impl(system, cls.loid)
        # Advance the round-robin index to the last pool slot.
        while impl._clone_rr != 2:
            system.create_instance(cls.loid)
        system.call(cls.loid, "RetireClone", clones[2].loid)
        system.call(cls.loid, "RetireClone", clones[1].loid)
        # Regression: the index must be re-bounded into the shrunken pool,
        # not left dangling past it.
        assert len(impl.clones) == 1
        assert 0 <= impl._clone_rr < len(impl.clones)
        # Delegation still works and lands on the one survivor.
        assert system.create_instance(cls.loid) is not None
        _assert_pool_sound(system, cls)

    def test_delegation_spreads_creates_over_the_pool(self):
        system, cls = _build()
        system.call(cls.loid, "Clone")
        system.call(cls.loid, "Clone")
        impl = live_impl(system, cls.loid)
        before = impl._clone_rr
        system.create_instance(cls.loid)
        system.create_instance(cls.loid)
        # Two delegated Creates move the index twice (mod pool size).
        assert impl._clone_rr == (before + 2) % len(impl.clones)
        _assert_pool_sound(system, cls)


class TestCloneEpoch:
    def test_epoch_bumps_on_spawn_and_retire(self):
        system, cls = _build()
        assert system.call(cls.loid, "CloneEpoch") == 0
        clone = system.call(cls.loid, "Clone")
        after_spawn = system.call(cls.loid, "CloneEpoch")
        assert after_spawn > 0
        system.call(cls.loid, "RetireClone", clone.loid)
        assert system.call(cls.loid, "CloneEpoch") > after_spawn
        _assert_pool_sound(system, cls)

    def test_get_clone_pool_lists_parent_first(self):
        system, cls = _build()
        clone = system.call(cls.loid, "Clone")
        epoch, pool = system.call(cls.loid, "GetClonePool")
        assert epoch == system.call(cls.loid, "CloneEpoch")
        assert [b.loid for b in pool] == [cls.loid, clone.loid]
        _assert_pool_sound(system, cls)


class TestRetireClone:
    def test_retiring_a_non_clone_raises_unknown_object(self):
        system, cls = _build()
        instance = system.create_instance(cls.loid)
        with pytest.raises(UnknownObject):
            system.call(cls.loid, "RetireClone", instance.loid)
        _assert_pool_sound(system, cls)

    def test_retire_reconciles_the_opr_and_stragglers_resurrect(self):
        system, cls = _build()
        clone = system.call(cls.loid, "Clone")
        assert system.call(cls.loid, "RetireClone", clone.loid) is True
        assert system.call(cls.loid, "CloneCount") == 0
        # Retired means Inert, not gone: no host runs it...
        for server in system.host_servers.values():
            entry = server.impl.processes.find(clone.loid)
            assert entry is None or entry.crashed
        # ...but a straggler reference reactivates it from the OPR,
        # without it rejoining the routing pool.
        assert system.call(clone.loid, "CloneEpoch") == 0
        assert system.call(cls.loid, "CloneCount") == 0
        _assert_pool_sound(system, cls)

    def test_magistrate_deactivation_drops_the_clone_from_the_pool(self):
        system, cls = _build()
        clone = system.call(cls.loid, "Clone")
        row = system.call(cls.loid, "GetRow", clone.loid)
        system.call(row.current_magistrates[0], "Deactivate", clone.loid)
        # NoteDeactivated reached the parent: the pool stopped routing.
        assert system.call(cls.loid, "CloneCount") == 0
        _assert_pool_sound(system, cls)


class TestDeleteClone:
    def test_deleting_a_clone_drops_it_from_the_pool(self):
        system, cls = _build()
        clone = system.call(cls.loid, "Clone")
        epoch = system.call(cls.loid, "CloneEpoch")
        system.call(cls.loid, "Delete", clone.loid)
        # Regression: the deleted clone stayed in the pool, so every
        # delegated Create() failed with ObjectDeleted.
        assert system.call(cls.loid, "CloneEpoch") > epoch
        _epoch, pool = system.call(cls.loid, "GetClonePool")
        assert [b.loid for b in pool] == [cls.loid]
        for _ in range(3):
            assert system.create_instance(cls.loid) is not None
        _assert_pool_sound(system, cls)
