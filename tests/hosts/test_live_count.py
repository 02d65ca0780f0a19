"""The process table's live count: O(1) admission that agrees with the list.

``ProcessTable.live`` stands in for ``len(running())`` wherever a Host
Object admits a process, so it must equal that length after every way an
entry enters, crashes or leaves: Activate, a crash of one object (again
and again), a whole-host crash, Reap, KillObject and Deactivate.
Capacity reads the count: a host refuses exactly at ``max_processes``
live processes, and a crashed but unreaped process no longer holds a slot.
"""

import pytest

from repro import errors
from repro.faults import ChaosDriver, FaultLog, FaultPlan
from repro.hosts.host_types import UnixHostImpl

from tests.hosts.test_hosts import make_opr, start_host


def assert_live_matches(table):
    assert table.live == len(table.running())


@pytest.fixture
def host(services):
    return start_host(services, UnixHostImpl(host_id=5, max_processes=3))


def reap(services, host):
    fut = services.kernel.spawn(host.impl.reap())
    return services.kernel.run_until_complete(fut)


class TestLiveCount:
    def test_every_exit_keeps_the_count(self, services, host):
        table = host.impl.processes
        oprs = [make_opr(services, seq) for seq in (1, 2, 3)]
        for opr in oprs:
            host.impl.activate(opr)
            assert_live_matches(table)
        assert table.live == 3

        host.impl.crash_object(oprs[0].loid, "oom")
        assert_live_matches(table)
        host.impl.crash_object(oprs[0].loid, "oom again")  # only the reason moves
        assert_live_matches(table)
        assert table.live == 2
        assert table.get(oprs[0].loid).exception == "oom again"

        assert reap(services, host) == [(oprs[0].loid, "oom again")]
        assert_live_matches(table)
        host.impl.kill_object(oprs[1].loid)
        assert_live_matches(table)
        host.impl.deactivate(oprs[2].loid)
        assert_live_matches(table)
        assert table.live == 0 and len(table) == 0

    def test_killing_or_deactivating_a_crashed_entry(self, services, host):
        table = host.impl.processes
        first, second = make_opr(services, 1), make_opr(services, 2)
        host.impl.activate(first)
        host.impl.activate(second)
        host.impl.crash_object(first.loid)
        host.impl.crash_object(second.loid)
        host.impl.kill_object(first.loid)
        assert_live_matches(table)
        with pytest.raises(errors.HostError):
            host.impl.deactivate(second.loid)  # state lost; entry dropped
        assert_live_matches(table)
        assert table.live == 0 and len(table) == 0

    def test_a_ghost_entry_frees_its_slot(self, services, host):
        oprs = [make_opr(services, seq) for seq in (1, 2, 3, 4)]
        for opr in oprs[:3]:
            host.impl.activate(opr)
        with pytest.raises(errors.NoCapacity):
            host.impl.activate(oprs[3])
        host.impl.crash_object(oprs[0].loid)  # unreaped, still in the table
        assert len(host.impl.processes) == 3
        host.impl.activate(oprs[3])  # admitted: the ghost holds no slot
        with pytest.raises(errors.NoCapacity):
            host.impl.activate(make_opr(services, 5))
        # Reactivating the ghost's LOID replaces it and takes a slot again.
        host.impl.kill_object(oprs[1].loid)
        host.impl.activate(oprs[0])
        assert_live_matches(host.impl.processes)
        assert host.impl.processes.live == 3

    def test_refuses_exactly_at_max_processes(self, services):
        for limit in (1, 2, 5):
            host = start_host(services, UnixHostImpl(host_id=10 + limit, max_processes=limit))
            base = 100 * limit
            for seq in range(limit):
                host.impl.activate(make_opr(services, base + seq + 1))
                assert host.impl.processes.live == seq + 1
            with pytest.raises(errors.NoCapacity):
                host.impl.activate(make_opr(services, base + limit + 1))

    def test_a_host_crash_through_the_fault_driver(self, fresh_legion):
        system, cls = fresh_legion
        for _ in range(6):
            system.create_instance(cls.loid)
        driver = ChaosDriver(system, FaultPlan(), FaultLog())
        host_id = next(
            h
            for h in sorted(system.host_servers)
            if h not in driver._protected
            and system.host_servers[h].impl.processes.live > 0
        )
        table = system.host_servers[host_id].impl.processes
        resident = len(table)
        driver.crash_host(host_id)
        assert_live_matches(table)
        assert table.live == 0 and len(table) == resident
        assert {e.exception for e in table.crashed_entries()} == {
            f"host {host_id} crashed"
        }
