"""Binding Agent behaviour (3.6, Fig. 15) against a live system."""

import pytest

from repro import errors
from repro.naming.binding import Binding
from tests._state import clear_cache


class TestGetBinding:
    def test_cache_miss_escalates_to_class_then_hits(self, fresh_legion):
        system, cls = fresh_legion
        agent = system.agents[system.sites[0].name]
        binding = system.call(cls.loid, "Create", {})
        system.call(agent.loid, "Ping")  # warm console→agent resolution
        agent.impl.agent_stats.reset()
        first = system.call(agent.loid, "GetBinding", binding.loid)
        second = system.call(agent.loid, "GetBinding", binding.loid)
        assert first.address == binding.address == second.address
        assert agent.impl.agent_stats.class_escalations == 1
        assert agent.impl.agent_stats.cache_hits == 1

    def test_get_binding_for_class_object(self, fresh_legion):
        system, cls = fresh_legion
        agent = system.agents[system.sites[1].name]
        result = system.call(agent.loid, "GetBinding", cls.loid)
        assert result.loid == cls.loid

    def test_stale_binding_refresh_overload(self, fresh_legion):
        system, cls = fresh_legion
        agent = system.agents[system.sites[0].name]
        binding = system.call(cls.loid, "Create", {})
        system.call(agent.loid, "GetBinding", binding.loid)  # cache it
        row = system.call(cls.loid, "GetRow", binding.loid)
        system.call(row.current_magistrates[0], "Deactivate", binding.loid)
        # GetBinding(binding): the paper's refresh path -- must not hand
        # back the same dead address.
        fresh = system.call(agent.loid, "GetBinding", binding)
        assert fresh.address != binding.address
        assert system.call(binding.loid, "Ping") == "pong"

    def test_unknown_loid_propagates_error(self, fresh_legion):
        system, cls = fresh_legion
        from repro.naming.loid import LOID

        agent = system.agents[system.sites[0].name]
        ghost = LOID.for_instance(cls.loid.class_id, 55555, system.services.secret)
        with pytest.raises(errors.UnknownObject):
            system.call(agent.loid, "GetBinding", ghost)


class TestAddInvalidate:
    def test_add_binding_preloads_cache(self, fresh_legion):
        system, cls = fresh_legion
        agent = system.agents[system.sites[0].name]
        binding = system.call(cls.loid, "Create", {})
        system.call(agent.loid, "InvalidateBinding", binding.loid)
        system.call(agent.loid, "AddBinding", binding)
        agent.impl.agent_stats.reset()
        system.call(agent.loid, "GetBinding", binding.loid)
        assert agent.impl.agent_stats.cache_hits == 1

    def test_invalidate_by_loid(self, fresh_legion):
        system, cls = fresh_legion
        agent = system.agents[system.sites[0].name]
        binding = system.call(cls.loid, "Create", {})
        system.call(agent.loid, "GetBinding", binding.loid)
        size_before = len(agent.impl.runtime.cache)
        system.call(agent.loid, "InvalidateBinding", binding.loid)
        assert len(agent.impl.runtime.cache) == size_before - 1

    def test_invalidate_exact_spares_fresh(self, fresh_legion):
        system, cls = fresh_legion
        agent = system.agents[system.sites[0].name]
        binding = system.call(cls.loid, "Create", {})
        current = system.call(agent.loid, "GetBinding", binding.loid)
        stale = Binding(current.loid, system.agents[system.sites[1].name].address)
        system.call(agent.loid, "InvalidateBinding", stale)  # exact mismatch
        agent.impl.agent_stats.reset()
        system.call(agent.loid, "GetBinding", binding.loid)
        assert agent.impl.agent_stats.cache_hits == 1  # still cached


class TestHierarchy:
    def test_leaf_escalates_to_parent_not_class(self, fresh_legion):
        from repro.experiments.e3_combining_tree import _spawn_agent_on

        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        root = _spawn_agent_on(system, None, "tree-root")
        leaf = _spawn_agent_on(system, root.binding(), "tree-leaf")
        result = system.call(leaf.loid, "GetBinding", binding.loid)
        assert result.address == binding.address
        assert leaf.impl.agent_stats.parent_escalations == 1
        assert leaf.impl.agent_stats.class_escalations == 0
        assert root.impl.agent_stats.class_escalations == 1

    def test_build_agent_tree_shapes(self):
        from repro.binding.hierarchy import build_agent_tree
        from repro.naming.binding import Binding as B
        from repro.naming.loid import LOID
        from repro.net.address import ObjectAddress, ObjectAddressElement

        counter = [0]

        def spawn(parent, level, index):
            counter[0] += 1
            return B(
                LOID.for_instance(60, counter[0]),
                ObjectAddress.single(
                    ObjectAddressElement.sim(counter[0], 1024)
                ),
            )

        tree = build_agent_tree(spawn, leaf_count=8, fanout=2)
        assert len(tree.leaves) == 8
        assert tree.tiers[0] == [tree.root]
        # 1 + 2 + 4 + 8
        assert tree.agent_count == 15
        assert tree.depth == 4

    def test_degenerate_trees(self):
        from repro.binding.hierarchy import build_agent_tree

        calls = []

        def spawn(parent, level, index):
            calls.append((parent, level, index))
            from repro.naming.binding import Binding as B
            from repro.naming.loid import LOID
            from repro.net.address import ObjectAddress, ObjectAddressElement

            return B(
                LOID.for_instance(60, len(calls)),
                ObjectAddress.single(ObjectAddressElement.sim(len(calls), 1)),
            )

        tree = build_agent_tree(spawn, leaf_count=1, fanout=4)
        assert tree.agent_count == 1
        with pytest.raises(ValueError):
            build_agent_tree(spawn, leaf_count=0, fanout=2)
        with pytest.raises(ValueError):
            build_agent_tree(spawn, leaf_count=2, fanout=0)


class TestResolverDirect:
    def test_client_resolution_via_resolver(self, fresh_legion):
        from repro.binding.resolver import resolve_loid
        from repro.security.environment import CallEnvironment

        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        client = system.new_client("resolver-test")
        clear_cache(client.runtime.cache)
        client.runtime.seed_binding(
            system.services.core_bindings["LegionClass"]
        )
        env = CallEnvironment.originating(client.loid)
        fut = system.spawn(resolve_loid(client.runtime, binding.loid, env))
        resolved = system.kernel.run_until_complete(fut)
        assert resolved.address == binding.address
        # Both the class binding and the target landed in the cache.
        assert client.runtime.cache.lookup(cls.loid, system.kernel.now)
        assert client.runtime.cache.lookup(binding.loid, system.kernel.now)

    def test_resolver_walks_class_chain(self, fresh_legion):
        from repro.binding.resolver import locate_class_binding
        from repro.security.environment import CallEnvironment

        system, cls = fresh_legion
        sub = system.call(cls.loid, "Derive", "ResolverSub", {})
        client = system.new_client("resolver-chain")
        clear_cache(client.runtime.cache)
        client.runtime.seed_binding(
            system.services.core_bindings["LegionClass"]
        )
        env = CallEnvironment.originating(client.loid)
        fut = system.spawn(
            locate_class_binding(client.runtime, sub.loid, env)
        )
        resolved = system.kernel.run_until_complete(fut)
        assert resolved.loid == sub.loid
