"""Integration: the full binding walk of Fig. 17 and its cache effects."""

import pytest

from repro import errors
from repro.metrics.counters import ComponentId, ComponentKind


class TestFig17Walk:
    def test_cold_walk_touches_agent_and_class(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        client = system.new_client("walker")
        system.reset_measurements()
        system.call(binding.loid, "Ping", client=client)
        metrics = system.services.metrics
        agent_load = metrics.totals_by_kind().get(ComponentKind.BINDING_AGENT, 0)
        class_load = metrics.totals_by_kind().get(ComponentKind.CLASS_OBJECT, 0)
        assert agent_load >= 1  # the client consulted its Binding Agent
        assert class_load >= 1  # the agent consulted class C

    def test_warm_walk_touches_nobody(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        client = system.new_client("walker2")
        system.call(binding.loid, "Ping", client=client)
        system.reset_measurements()
        system.call(binding.loid, "Ping", client=client)
        metrics = system.services.metrics
        assert metrics.totals_by_kind().get(ComponentKind.BINDING_AGENT, 0) == 0
        assert metrics.totals_by_kind().get(ComponentKind.CLASS_OBJECT, 0) == 0
        assert metrics.totals_by_kind().get(ComponentKind.LEGION_CLASS, 0) == 0

    def test_every_tier_caches_the_result(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        client = system.new_client("walker3")
        agent = system.agents[system.sites[0].name]
        assert client.runtime.cache.lookup(binding.loid, system.kernel.now) is None
        system.call(binding.loid, "Ping", client=client)
        # Fig. 17's shaded cells: the client AND its agent now hold it.
        assert client.runtime.cache.lookup(binding.loid, system.kernel.now)
        assert agent.runtime.cache.lookup(binding.loid, system.kernel.now)

    def test_reference_to_inert_object_activates_it(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        system.call(binding.loid, "Increment", 4)
        row = system.call(cls.loid, "GetRow", binding.loid)
        magistrate = row.current_magistrates[0]
        system.call(magistrate, "Deactivate", binding.loid)
        # A *fresh* client (clean caches) referencing the LOID reactivates.
        client = system.new_client("walker4")
        assert system.call(binding.loid, "Get", client=client) == 4
        from repro.jurisdiction.magistrate import ObjectState

        assert (
            system.call(magistrate, "GetObjectState", binding.loid)
            is ObjectState.ACTIVE
        )

    def test_deleted_object_definitively_unresolvable(self, fresh_legion):
        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        system.call(cls.loid, "Delete", binding.loid)
        client = system.new_client("walker5")
        with pytest.raises(errors.ObjectDeleted):
            system.call(binding.loid, "Ping", client=client)


class TestDeepClassChains:
    def test_resolving_instance_of_deep_subclass(self, fresh_legion):
        # B is an instance of Sub3 < Sub2 < Sub1 < Counter < LegionObject;
        # locating Sub3 walks responsibility pairs recursively (4.1.3).
        system, cls = fresh_legion
        current = cls
        for i in range(3):
            current = system.call(current.loid, "Derive", f"Deep{i}", {})
        leaf = system.call(current.loid, "Create", {})
        client = system.new_client("deep-walker")
        assert system.call(leaf.loid, "Increment", 1, client=client) == 1

    def test_subclass_instances_use_inherited_factory(self, fresh_legion):
        system, cls = fresh_legion
        sub = system.call(cls.loid, "Derive", "InheritImpl", {})
        instance = system.call(sub.loid, "Create", {"init": {"start": 3}})
        assert instance.loid.class_id == sub.loid.class_id
        assert system.call(instance.loid, "Get") == 3


class TestCrossSite:
    def test_remote_site_client_resolves_through_own_agent(self, fresh_legion):
        system, cls = fresh_legion
        site0, site1 = system.sites[0].name, system.sites[1].name
        target = system.call(
            cls.loid, "Create", {"magistrate": system.magistrates[site0].loid}
        )
        remote_client = system.new_client("remote", site=site1)
        system.reset_measurements()
        system.call(target.loid, "Ping", client=remote_client)
        metrics = system.services.metrics
        # The remote client consulted ITS site's agent, not site0's.
        assert (
            metrics.get(
                ComponentId(ComponentKind.BINDING_AGENT, site1)
            )
            >= 1
        )
        assert (
            metrics.get(
                ComponentId(ComponentKind.BINDING_AGENT, site0)
            )
            == 0
        )

    def test_partition_isolates_then_heals(self, fresh_legion):
        system, cls = fresh_legion
        site0, site1 = system.sites[0].name, system.sites[1].name
        target = system.call(
            cls.loid, "Create", {"magistrate": system.magistrates[site0].loid}
        )
        remote_client = system.new_client("partitioned", site=site1)
        system.call(target.loid, "Ping", client=remote_client)  # warm path
        system.network.partition(site0, site1)
        with pytest.raises(errors.LegionError):
            system.call(target.loid, "Ping", client=remote_client)
        system.network.heal(site0, site1)
        assert system.call(target.loid, "Ping", client=remote_client) == "pong"
