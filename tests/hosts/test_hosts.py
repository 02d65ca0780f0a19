"""Tests for Host Objects: process table, capacity, platforms (2.3, 3.9)."""

import pytest

from repro import errors
from repro.hosts.host_types import (
    CM5HostImpl,
    CrayT3DHostImpl,
    SPMDHostImpl,
    UnixHostImpl,
    UnixSMMPHostImpl,
)
from repro.hosts.process_table import ProcessEntry, ProcessTable
from repro.naming.loid import LOID
from repro.persistence.opr import OPRecord
from repro.workloads.apps import CounterImpl

from tests.core.conftest import start_object


def make_opr(services, seq=1, factory="app.counter", nodes=None, class_id=77):
    if factory not in services.impls:
        services.impls.register(factory, CounterImpl)
    annotations = {"nodes": nodes} if nodes else {}
    return OPRecord(
        loid=LOID.for_instance(class_id, seq, services.secret),
        class_loid=LOID.for_class(class_id, services.secret),
        factory_chain=[(factory, {})],
        annotations=annotations,
    )


def start_host(services, impl):
    return start_object(services, impl, host=impl.host_id)


class TestProcessTable:
    def entry(self, seq=1):
        return ProcessEntry(loid=LOID.for_instance(1, seq), server=None, started_at=0.0)

    def test_add_get_remove(self):
        table = ProcessTable()
        entry = self.entry()
        table.add(entry)
        assert table.get(entry.loid) is entry
        assert table.remove(entry.loid) is entry
        with pytest.raises(errors.HostError):
            table.get(entry.loid)

    def test_duplicate_rejected(self):
        table = ProcessTable()
        table.add(self.entry())
        with pytest.raises(errors.HostError):
            table.add(self.entry())

    def test_crashed_partition(self):
        table = ProcessTable()
        alive = self.entry(1)
        dead = self.entry(2)
        table.add(alive)
        table.add(dead)
        table.mark_crashed(dead, "segfault")
        assert dead.exception == "segfault"
        assert table.crashed_entries() == [dead]
        assert table.running() == [alive]

    def test_resource_sums(self):
        table = ProcessTable()
        a = self.entry(1)
        a.cpu_share = 2.0
        a.memory_bytes = 100
        table.add(a)
        assert table.total_cpu_share == 2.0
        assert table.total_memory == 100


class TestHostActivation:
    def test_activate_returns_live_address(self, services):
        host = start_host(services, UnixHostImpl(host_id=5))
        opr = make_opr(services)
        address = host.impl.activate(opr)
        assert address.primary() in services.network._endpoints
        assert opr.loid in host.impl.processes

    def test_activate_restores_state(self, services):
        host = start_host(services, UnixHostImpl(host_id=5))
        impl = CounterImpl(0)
        impl.value = 77
        opr = make_opr(services).with_state(impl.save_state())
        address = host.impl.activate(opr)
        entry = host.impl.processes.get(opr.loid)
        assert entry.server.impl.value == 77

    def test_activate_idempotent_for_running_object(self, services):
        host = start_host(services, UnixHostImpl(host_id=5))
        opr = make_opr(services)
        first = host.impl.activate(opr)
        second = host.impl.activate(opr)
        assert first == second

    def test_capacity_limit(self, services):
        host = start_host(services, UnixHostImpl(host_id=5, max_processes=2))
        host.impl.activate(make_opr(services, 1))
        host.impl.activate(make_opr(services, 2))
        with pytest.raises(errors.NoCapacity):
            host.impl.activate(make_opr(services, 3))

    def test_not_accepting_refuses(self, services):
        host = start_host(services, UnixHostImpl(host_id=5))
        host.impl.set_accepting(False)
        with pytest.raises(errors.RequestRefused):
            host.impl.activate(make_opr(services))

    def test_deactivate_returns_state_and_frees_slot(self, services):
        host = start_host(services, UnixHostImpl(host_id=5))
        opr = make_opr(services)
        address = host.impl.activate(opr)
        entry = host.impl.processes.get(opr.loid)
        entry.server.impl.value = 9
        state = host.impl.deactivate(opr.loid)
        assert opr.loid not in host.impl.processes
        assert address.primary() not in services.network._endpoints
        fresh = CounterImpl()
        fresh.restore_state(state)
        assert fresh.value == 9

    def test_kill_discards_state(self, services):
        host = start_host(services, UnixHostImpl(host_id=5))
        opr = make_opr(services)
        host.impl.activate(opr)
        host.impl.kill_object(opr.loid)
        host.impl.kill_object(opr.loid)  # idempotent
        assert opr.loid not in host.impl.processes

    def test_cpu_load_limit(self, services):
        host = start_host(services, UnixHostImpl(host_id=5))
        host.impl.set_cpu_load(1.0)
        host.impl.activate(make_opr(services, 1))
        with pytest.raises(errors.NoCapacity):
            host.impl.activate(make_opr(services, 2))
        with pytest.raises(errors.HostError):
            host.impl.set_cpu_load(-1)

    def test_get_state_snapshot(self, services):
        host = start_host(services, UnixHostImpl(host_id=5, max_processes=10))
        host.impl.activate(make_opr(services))
        state = host.impl.get_state()
        assert state.process_count == 1
        assert state.free_slots == 9
        assert state.accepting

    def test_crash_and_reap(self, services):
        host = start_host(services, UnixHostImpl(host_id=5))
        opr = make_opr(services)
        address = host.impl.activate(opr)
        host.impl.crash_object(opr.loid, "oom")
        assert address.primary() not in services.network._endpoints
        # Reap without a magistrate: returns the reaped list.
        fut = services.kernel.spawn(host.impl.reap())
        reaped = services.kernel.run_until_complete(fut)
        assert reaped == [(opr.loid, "oom")]
        assert opr.loid not in host.impl.processes

    def test_composite_chain_activation(self, services):
        from repro.core.composite import CompositeImpl

        services.impls.register("app.counter2", CounterImpl, replace=True)
        host = start_host(services, UnixHostImpl(host_id=5))
        opr = make_opr(services)
        opr.factory_chain.append(("app.counter2", {"start": 5}))
        host.impl.activate(opr)
        entry = host.impl.processes.get(opr.loid)
        assert isinstance(entry.server.impl, CompositeImpl)


class TestPlatformFlavours:
    def test_unix_defaults(self):
        host = UnixHostImpl(host_id=1)
        assert host.platform == "unix"
        assert host.node_count == 1

    def test_smmp_round_robin_nodes(self):
        host = UnixSMMPHostImpl(host_id=1, processors=4)
        nodes = [host.next_node() for _ in range(6)]
        assert nodes == [0, 1, 2, 3, 0, 1]

    def test_spmd_partitions_consume_nodes(self, services):
        host = start_host(services, SPMDHostImpl(host_id=6, total_nodes=16, partition_nodes=8))
        host.impl.activate(make_opr(services, 1))
        assert host.impl.nodes_in_use == 8
        host.impl.activate(make_opr(services, 2))
        with pytest.raises(errors.NoCapacity):
            host.impl.activate(make_opr(services, 3))
        host.impl.deactivate(make_opr(services, 1).loid)
        assert host.impl.nodes_in_use == 8

    def test_spmd_per_opr_partition_size(self, services):
        host = start_host(services, SPMDHostImpl(host_id=6, total_nodes=16, partition_nodes=4))
        host.impl.activate(make_opr(services, 1, nodes=12))
        assert host.impl.nodes_in_use == 12

    def test_cm5_power_of_two_partitions(self, services):
        host = start_host(services, CM5HostImpl(host_id=7, total_nodes=256))
        host.impl.activate(make_opr(services, 1, nodes=33))
        assert host.impl.nodes_in_use == 64  # rounded up to a power of two

    def test_cray_pe_pairs(self, services):
        host = start_host(services, CrayT3DHostImpl(host_id=8, total_nodes=64))
        host.impl.activate(make_opr(services, 1, nodes=3))
        assert host.impl.nodes_in_use == 4  # rounded to PE pairs
