"""Unit tests for Bindings (3.5) and BindingCaches (5.2.1)."""

import pytest

from repro.naming.binding import Binding, NEVER_EXPIRES
from repro.naming.cache import BindingCache
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress, ObjectAddressElement


def make_binding(seq=1, host=1, expires=NEVER_EXPIRES):
    return Binding(
        LOID.for_instance(7, seq),
        ObjectAddress.single(ObjectAddressElement.sim(host, 1024)),
        expires,
    )


class TestBinding:
    def test_never_expires_default(self):
        binding = make_binding()
        assert binding.valid_at(0.0)
        assert binding.valid_at(1e18)

    def test_expiry(self):
        binding = make_binding(expires=10.0)
        assert binding.valid_at(9.999)
        assert not binding.valid_at(10.0)

    def test_refreshed_keeps_loid(self):
        binding = make_binding()
        new_address = ObjectAddress.single(ObjectAddressElement.sim(9, 2048))
        refreshed = binding.refreshed(new_address, 50.0)
        assert refreshed.loid == binding.loid
        assert refreshed.address == new_address
        assert refreshed.expires_at == 50.0


class TestBindingCache:
    def test_miss_then_hit(self):
        cache = BindingCache(capacity=4)
        binding = make_binding()
        assert cache.lookup(binding.loid, 0.0) is None
        cache.insert(binding)
        assert cache.lookup(binding.loid, 0.0) == binding
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_expired_entry_counts_as_miss_and_is_removed(self):
        cache = BindingCache()
        cache.insert(make_binding(expires=5.0))
        assert cache.lookup(make_binding().loid, 6.0) is None
        assert cache.stats.expired == 1
        assert len(cache) == 0

    def test_lru_eviction_order(self):
        cache = BindingCache(capacity=2)
        b1, b2, b3 = make_binding(1), make_binding(2), make_binding(3)
        cache.insert(b1)
        cache.insert(b2)
        cache.lookup(b1.loid, 0.0)  # touch b1: b2 becomes LRU
        cache.insert(b3)
        assert cache.lookup(b1.loid, 0.0) == b1
        assert cache.lookup(b2.loid, 0.0) is None
        assert cache.stats.evictions == 1

    def test_insert_replaces_same_identity(self):
        cache = BindingCache()
        old = make_binding(1, host=1)
        new = make_binding(1, host=9)
        cache.insert(old)
        cache.insert(new)
        assert len(cache) == 1
        assert cache.lookup(old.loid, 0.0) == new

    def test_invalidate_by_loid(self):
        cache = BindingCache()
        binding = make_binding()
        cache.insert(binding)
        assert cache.invalidate(binding.loid)
        assert not cache.invalidate(binding.loid)  # idempotent
        assert cache.stats.invalidations == 1

    def test_invalidate_exact_spares_newer_binding(self):
        cache = BindingCache()
        stale = make_binding(1, host=1)
        fresh = make_binding(1, host=2)
        cache.insert(fresh)
        # A caller holding the stale binding must not clobber the fresh one.
        assert not cache.invalidate_exact(stale)
        assert cache.lookup(fresh.loid, 0.0) == fresh
        assert cache.invalidate_exact(fresh)

    def test_unbounded_capacity(self):
        cache = BindingCache(capacity=None)
        for i in range(1, 1001):
            cache.insert(make_binding(i))
        assert len(cache) == 1000
        assert cache.stats.evictions == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            BindingCache(capacity=0)

    def test_hit_rate(self):
        cache = BindingCache()
        binding = make_binding()
        cache.insert(binding)
        cache.lookup(binding.loid, 0.0)
        cache.lookup(make_binding(99).loid, 0.0)
        assert cache.stats.hit_rate == 0.5

    def test_stats_reset(self):
        cache = BindingCache()
        cache.insert(make_binding())
        cache.lookup(make_binding().loid, 0.0)
        cache.stats.reset()
        assert cache.stats.lookups == 0
        assert cache.stats.inserts == 0
