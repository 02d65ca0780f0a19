"""The geo-replication data plane: directory, catalogs, selection, repair.

Covers the subsystem around ``CreateReplicated`` (PR 7): the
``enable_replication`` fabric and its idempotence, the gossip-fed
two-tier catalogs, locality-aware replica selection on the call path, the
grow-side AddReplica semantics (size cap, concurrent-grow coalescing,
seed-before-publish), the replica-group guard in stale-binding recovery,
and the background repair service's deterministic sweep cycle.
"""

import pytest

from repro import errors
from repro.naming.binding import Binding
from repro.net.latency import LinkClass
from repro.replication import (
    ReplicaRepairService,
    ReplicaSession,
    enable_replication,
)
from repro.replication.store import ReplicatedStoreImpl
from repro.system.legion import LegionSystem, SiteSpec

KEYS = [f"k{i}" for i in range(4)]


def build_geo(seed=0, replicas=3, sites=3, hosts=2):
    """A fresh ``sites``-site system with replication on and one seeded
    replicated GeoStore group; returns (system, directory, cls, binding)."""
    system = LegionSystem.build(
        [SiteSpec(f"site{i}", hosts=hosts) for i in range(sites)], seed=seed
    )
    directory = enable_replication(system)
    cls = system.create_class("GeoStore", factory=ReplicatedStoreImpl)
    binding = system.call(cls.loid, "CreateReplicated", replicas, "first", 1)
    session = ReplicaSession(system.console.runtime, binding, "read-any")
    system.kernel.run_until_complete(
        system.spawn(session.seed((k, f"v:{k}") for k in KEYS), name="seed")
    )
    system.kernel.run()  # drain the placement gossip
    return system, directory, cls, binding


def replica_impls(system, loid):
    """element -> ReplicatedStoreImpl for every live replica of ``loid``."""
    out = {}
    for host_server in system.host_servers.values():
        entry = host_server.impl.processes.find(loid)
        if entry is not None and not entry.crashed:
            out[entry.server.element] = entry.server.impl
    return out


def crash_element(system, loid, element):
    system.host_servers[element.host].impl.crash_object(loid, "test crash")


class TestEnableReplication:
    def test_builds_one_catalog_per_site_plus_index(self):
        system, directory, _cls, _binding = build_geo()
        assert directory.sites() == ["site0", "site1", "site2"]
        assert directory.index is not None
        for site in directory.sites():
            assert isinstance(directory.catalogs[site], Binding)

    def test_idempotent_same_directory(self):
        system = LegionSystem.build(
            [SiteSpec(f"site{i}", hosts=2) for i in range(2)], seed=3
        )
        directory = enable_replication(system)
        assert system.services.replication is directory
        catalogs = dict(directory.catalogs)
        assert enable_replication(system) is directory
        assert system.services.replication is directory
        assert directory.catalogs == catalogs


class TestCatalogGossip:
    def test_catalogs_learn_placement_without_round_trips(self):
        system, directory, cls, binding = build_geo()
        for site in directory.sites():
            catalog = directory.catalogs[site]
            assert system.call(catalog.loid, "ReplicaCount", binding.loid) == 1
            tracked = system.call(catalog.loid, "Tracked")
            assert (binding.loid, 3, cls.loid) in tracked

    def test_index_aggregates_site_counts(self):
        system, directory, _cls, binding = build_geo()
        index = directory.index
        assert system.call(index.loid, "TotalReplicas", binding.loid) == 3
        sites = dict(system.call(index.loid, "SitesOf", binding.loid))
        assert sites == {"site0": 1, "site1": 1, "site2": 1}
        assert system.call(index.loid, "UnderReplicated") == []

    def test_shrink_news_surfaces_under_replication(self):
        system, directory, cls, binding = build_geo()
        element = binding.address.elements[0]
        crash_element(system, binding.loid, element)
        system.call(cls.loid, "ReportDeadReplica", binding.loid, element)
        system.kernel.run()  # drain the removal gossip
        index = directory.index
        assert system.call(index.loid, "TotalReplicas", binding.loid) == 2
        under = system.call(index.loid, "UnderReplicated")
        assert [(u[0], u[1], u[2]) for u in under] == [(binding.loid, 2, 3)]


class TestLocalitySelection:
    def test_each_site_reads_its_own_replica(self):
        system, _directory, _cls, binding = build_geo()
        site_of = system.network.latency.site_of
        clients = {
            spec.name: system.new_client(f"c-{spec.name}", site=spec.name)
            for spec in system.sites
        }
        for client in clients.values():  # warm bindings outside the count
            system.call(binding.loid, "Get", KEYS[0], client=client)
        system.reset_measurements()
        for _ in range(5):
            for client in clients.values():
                system.call(binding.loid, "Get", KEYS[1], client=client)
        assert system.network.stats.by_class[LinkClass.WIDE_AREA] == 0
        served = {
            site_of(element.host): impl.reads_served
            for element, impl in replica_impls(system, binding.loid).items()
        }
        assert all(count > 0 for count in served.values())

    @pytest.mark.parametrize("replication", ["locality", "none"])
    def test_first_group_try_order(self, replication):
        """Nearest-first from the caller's host with replication on; plain
        group order with no directory installed."""
        system = LegionSystem.build(
            [SiteSpec(f"site{i}", hosts=2) for i in range(3)], seed=0
        )
        if replication != "none":
            enable_replication(system)
        cls = system.create_class("GeoStore", factory=ReplicatedStoreImpl)
        binding = system.call(cls.loid, "CreateReplicated", 3, "first", 1)
        session = ReplicaSession(system.console.runtime, binding, "read-any")
        system.kernel.run_until_complete(system.spawn(session.seed([("k", "v")])))
        site_of = system.network.latency.site_of
        first, *_rest, last = binding.address.elements
        client = system.new_client("far", site=site_of(last.host))
        assert site_of(first.host) != site_of(last.host)
        for _ in range(3):
            assert system.call(binding.loid, "Get", "k", client=client) == "v"
        served = {
            element: impl.reads_served
            for element, impl in replica_impls(system, binding.loid).items()
        }
        expected = last if replication == "locality" else first
        assert served[expected] == 3 and sum(served.values()) == 3

    def test_selection_masks_a_partitioned_remote_replica(self):
        system, _directory, _cls, binding = build_geo()
        client = system.new_client("c0", site="site0")
        system.call(binding.loid, "Get", KEYS[0], client=client)
        system.network.partition("site0", "site1")
        try:
            # site0's reader keeps its local copy; the cut never shows.
            assert (
                system.call(binding.loid, "Get", KEYS[2], client=client)
                == f"v:{KEYS[2]}"
            )
        finally:
            system.network.heal_all()


class TestAddReplica:
    def test_noop_at_target_size(self):
        system, _directory, cls, binding = build_geo()
        before = set(binding.address.elements)
        grown = system.call(cls.loid, "AddReplica", binding.loid)
        assert set(grown.address.elements) == before

    def test_regrow_is_seeded_before_publication(self):
        system, _directory, cls, binding = build_geo()
        site_of = system.network.latency.site_of
        victim = binding.address.elements[1]
        victim_site = site_of(victim.host)
        crash_element(system, binding.loid, victim)
        system.call(cls.loid, "ReportDeadReplica", binding.loid, victim)
        grown = system.call(
            cls.loid, "AddReplica", binding.loid,
            system.magistrates[victim_site].loid,
        )
        fresh = [e for e in grown.address.elements if e != victim]
        assert len(fresh) == 3
        new = [e for e in fresh if site_of(e.host) == victim_site]
        assert len(new) == 1  # the hint put it back where coverage was lost
        impls = replica_impls(system, binding.loid)
        assert sorted(impls[new[0]].data) == sorted(KEYS)  # full state copy

    def test_concurrent_grows_coalesce_to_one_member(self):
        system, _directory, cls, binding = build_geo()
        victim = binding.address.elements[0]
        crash_element(system, binding.loid, victim)
        system.call(cls.loid, "ReportDeadReplica", binding.loid, victim)
        runtime = system.console.runtime
        futures = [
            system.spawn(
                runtime.invoke(cls.loid, "AddReplica", binding.loid),
                name=f"grow-{i}",
            )
            for i in range(3)
        ]
        results = [system.kernel.run_until_complete(f) for f in futures]
        for result in results:
            assert len(result.address.elements) == 3
        final = system.call(cls.loid, "GetBinding", binding.loid)
        assert len(final.address.elements) == 3  # racing grows never inflate

    def test_unseedable_grow_raises_and_publishes_nothing(self):
        system, _directory, cls, binding = build_geo()
        for element in list(binding.address.elements):
            crash_element(system, binding.loid, element)
        shrunk = system.call(
            cls.loid, "ReportDeadReplica", binding.loid,
            binding.address.elements[0],
        )
        assert len(shrunk.address.elements) == 2
        # The remaining "sources" are dead too, so a grow cannot be
        # seeded: the class must refuse rather than publish an empty
        # member that would serve reads with no state.
        with pytest.raises(errors.LegionError):
            system.call(cls.loid, "AddReplica", binding.loid)
        row = system.call(cls.loid, "GetRow", binding.loid)
        assert len(row.object_address.elements) == 2  # nothing published


class TestReplicaGroupStaleGuard:
    def test_row_carries_the_target_size(self):
        system, _directory, cls, binding = build_geo(replicas=2)
        row = system.call(cls.loid, "GetRow", binding.loid)
        assert row.replica_want == 2
        assert row.replicated

    def test_stale_refresh_of_single_member_group_keeps_the_address(self):
        # The regression this guard pins: magistrates refuse to recover
        # replica groups (the class owns the address), so a stale-binding
        # refresh that nulled the row of a size-1 group lost the object
        # forever.  ``replica_want`` marks the row class-owned at ANY size.
        system, _directory, cls, binding = build_geo(replicas=1)
        # Passing a Binding (not a LOID) routes to the stale-refresh path.
        refreshed = system.call(cls.loid, "GetBinding", binding)
        assert refreshed.address.elements == binding.address.elements
        row = system.call(cls.loid, "GetRow", binding.loid)
        assert row.object_address is not None
        assert system.call(binding.loid, "Get", KEYS[0]) == f"v:{KEYS[0]}"


class TestRepairService:
    def test_sweep_cycle_restores_crashed_replica_with_state(self):
        system, directory, cls, binding = build_geo()
        kernel = system.kernel
        site_of = system.network.latency.site_of
        victim = binding.address.elements[2]
        victim_site = site_of(victim.host)
        crash_element(system, binding.loid, victim)
        service = ReplicaRepairService(system)
        for site in directory.sites():
            kernel.run_until_complete(
                system.spawn(service.sweep_site(site), name=f"sweep-{site}")
            )
        kernel.run()
        kinds = [kind for _s, _l, kind in service.actions]
        assert "shrink" in kinds and "regrow" in kinds
        final = system.call(cls.loid, "GetBinding", binding.loid)
        assert len(final.address.elements) == 3
        assert {site_of(e.host) for e in final.address.elements} == {
            "site0", "site1", "site2",
        }
        for impl in replica_impls(system, binding.loid).values():
            assert sorted(impl.data) == sorted(KEYS)

    def test_healthy_sweep_is_identity(self):
        system, directory, cls, binding = build_geo()
        service = ReplicaRepairService(system)
        for site in directory.sites():
            system.kernel.run_until_complete(
                system.spawn(service.sweep_site(site), name=f"sweep-{site}")
            )
        assert service.actions == []
        final = system.call(cls.loid, "GetBinding", binding.loid)
        assert set(final.address.elements) == set(binding.address.elements)
