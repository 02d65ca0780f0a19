"""Seeding a new runtime with the core bindings in one copy per map.

Every ObjectServer's runtime starts with the core objects' bindings in its
cache and in its permanent map (a core object leaves out its own).  The
seed is a per-system snapshot copied in whole; it must leave exactly what
seeding binding by binding left: the same cache entries in the same LRU
order, the same permanent map, the same cache counters.
"""

import pytest

from repro.core.object_base import LegionObjectImpl
from repro.core.runtime import LegionRuntime
from repro.core.server import ObjectServer
from repro.metrics.counters import ComponentKind
from repro.naming.cache import BindingCache
from repro.naming.loid import LOID
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl


def binding_by_binding(services, loid, capacity):
    """(entries, permanent, stats) of the per-binding seeding loop."""
    cache = BindingCache(capacity=capacity)
    permanent = {}
    for binding in services.core_bindings.values():
        if binding.loid != loid:
            permanent[binding.loid.identity] = binding
            cache.insert(binding)
    return cache.entries(), permanent, cache.stats


def state_of(runtime):
    return runtime.cache.entries(), dict(runtime._permanent), runtime.cache.stats


@pytest.fixture
def system():
    return LegionSystem.build([SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=1)], seed=5)


@pytest.fixture
def seeded(monkeypatch):
    """LOID → runtime state captured the moment a runtime is seeded."""
    states = {}
    seed_permanent = LegionRuntime.seed_permanent

    def record(runtime, bindings):
        seed_permanent(runtime, bindings)
        entries, permanent, stats = state_of(runtime)
        states[runtime.loid] = (entries, permanent, type(stats)(**vars(stats)))

    monkeypatch.setattr(LegionRuntime, "seed_permanent", record)
    return states


def test_an_application_object(system, seeded):
    cls = system.create_class("Seeded", factory=CounterImpl)
    loid = system.create_instance(cls.loid).loid
    expected = binding_by_binding(system.services, loid, 128)
    assert seeded[loid] == expected
    assert len(expected[0]) == len(system.services.core_bindings)


def test_a_core_class_object_leaves_out_its_own_binding(system):
    services = system.services
    loid = services.well_known_loid("LegionHost")
    server = ObjectServer(
        services,
        loid,
        LegionObjectImpl(),
        host=system.site_hosts["uva"][1],
        component_kind=ComponentKind.CLASS_OBJECT,
        cache_capacity=4096,
    )
    expected = binding_by_binding(services, loid, 4096)
    assert state_of(server.runtime) == expected
    assert loid.identity not in server.runtime._permanent
    assert len(expected[0]) == len(services.core_bindings) - 1


def test_a_core_object_started_during_bootstrap(system):
    # The cores start before the table is complete; bootstrap seeds each
    # once afterwards, exactly as a later start would be.
    for role, server in system.core.servers.items():
        expected = binding_by_binding(system.services, server.loid, 4096)
        assert state_of(server.runtime)[:2] == expected[:2], role
        assert server.runtime.cache.stats.inserts == len(expected[0]), role


def test_a_class_from_create_class(system, seeded):
    loid = system.create_class("SeededClass", factory=CounterImpl).loid
    assert seeded[loid] == binding_by_binding(system.services, loid, 128)


def test_a_cache_smaller_than_the_seed_evicts_as_before(system):
    services = system.services
    loid = LOID.for_instance(4242, 1, services.secret)
    server = ObjectServer(
        services, loid, LegionObjectImpl(), host=system.site_hosts["uva"][0],
        cache_capacity=2,
    )
    expected = binding_by_binding(services, loid, 2)
    assert state_of(server.runtime) == expected
    assert expected[2].evictions == len(services.core_bindings) - 2
