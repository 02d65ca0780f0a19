"""Crashed processes: ghost entries, reaping, and same-LOID reactivation.

The Host Object's charter includes "reaping objects, and reporting object
exceptions" (section 2.3).  A crashed process leaves a *ghost* entry --
still in the process table, endpoint gone -- until Reap collects it and
reports the exception to the magistrate.  Reactivation of the same LOID
must work both after a reap (clean table) and before one (the ghost must
not block ``ProcessTable.add``).
"""

import pytest

from repro.errors import HostError
from repro.jurisdiction.magistrate import ObjectState


def _crash(system, binding):
    """Crash ``binding``'s process in place; returns (host_id, server)."""
    for host_id, server in system.host_servers.items():
        entry = server.impl.processes.find(binding.loid)
        if entry is not None and not entry.crashed:
            server.impl.crash_object(binding.loid, "induced fault")
            return host_id, server
    raise AssertionError("instance is not running anywhere")


def _magistrate(system, cls, binding):
    row = system.call(cls.loid, "GetRow", binding.loid)
    return row.current_magistrates[0]


class TestGhostEntries:
    def test_crash_leaves_ghost_until_reaped(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.create_instance(cls.loid)
        host_id, server = _crash(system, binding)
        entry = server.impl.processes.find(binding.loid)
        assert entry is not None and entry.crashed
        assert entry.exception == "induced fault"
        assert not system.network.is_registered(entry.server.address.elements[0])
        assert not system.call(server.loid, "HasProcess", binding.loid)
        # The ghost still counts toward the table but not toward load.
        assert binding.loid in server.impl.processes
        assert entry not in server.impl.processes.running()

    def test_reap_clears_table_and_reports_exception(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.create_instance(cls.loid)
        magistrate = _magistrate(system, cls, binding)
        system.call(magistrate, "Checkpoint", binding.loid)
        host_id, server = _crash(system, binding)
        reaped = system.call(server.loid, "Reap")
        assert [(loid, exc) for loid, exc in reaped] == [
            (binding.loid, "induced fault")
        ]
        assert server.impl.processes.find(binding.loid) is None
        mag_impl = next(
            m.impl for m in system.magistrates.values() if m.loid == magistrate
        )
        assert any(
            lost == binding.loid and reason == "induced fault"
            for _host, lost, reason in mag_impl.exception_log
        )
        # Checkpointed OPR in the vault: the record falls back to Lost, an
        # Inert state whose next activation is a recovery.
        record = mag_impl.managed[binding.loid.identity]
        assert record.state is ObjectState.LOST

    def test_reap_without_crashes_is_empty_noop(self, fresh_legion):
        system, _cls = fresh_legion
        server = next(iter(system.host_servers.values()))
        before = len(server.impl.processes)
        assert system.call(server.loid, "Reap") == []
        assert len(server.impl.processes) == before


class TestReactivation:
    def test_reactivate_same_loid_after_reap(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.create_instance(cls.loid)
        system.call(binding.loid, "Increment", 4)
        magistrate = _magistrate(system, cls, binding)
        system.call(magistrate, "Checkpoint", binding.loid)
        _host_id, server = _crash(system, binding)
        system.call(server.loid, "Reap")
        # A plain call re-resolves, the class re-activates from the
        # checkpoint, and the counter keeps its value.
        assert system.call(binding.loid, "Get") == 4

    def test_reactivate_same_loid_with_ghost_still_in_table(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.create_instance(cls.loid)
        system.call(binding.loid, "Increment", 2)
        magistrate = _magistrate(system, cls, binding)
        system.call(magistrate, "Checkpoint", binding.loid)
        _host_id, server = _crash(system, binding)
        # No reap: the crashed entry is still in the table.  Activating the
        # same LOID on the SAME host must evict the ghost instead of
        # tripping the duplicate-LOID guard in ProcessTable.add.
        mag_impl = next(
            m.impl for m in system.magistrates.values() if m.loid == magistrate
        )
        opr = mag_impl.jurisdiction.vault.load_opr(binding.loid)
        address = system.call(server.loid, "Activate", opr)
        assert address is not None
        entry = server.impl.processes.find(binding.loid)
        assert entry is not None and not entry.crashed
        assert entry.server.impl.value == 2  # state came from the checkpoint

    def test_duplicate_guard_still_holds_for_live_processes(self):
        from repro.hosts.process_table import ProcessEntry, ProcessTable
        from repro.naming.loid import LOID

        table = ProcessTable()
        loid = LOID.for_instance(9, 1)
        table.add(ProcessEntry(loid=loid, server=object(), started_at=0.0))
        with pytest.raises(HostError):
            table.add(ProcessEntry(loid=loid, server=object(), started_at=1.0))
