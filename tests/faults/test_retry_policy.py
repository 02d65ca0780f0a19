"""RetryPolicy mechanics: backoff math, counters, coalesced refreshes."""

import random

import pytest

from repro import errors
from repro.core.runtime import DEFAULT_RETRY_POLICY, RetryPolicy
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl


@pytest.fixture
def legion_pair():
    system = LegionSystem.build(
        [SiteSpec("east", hosts=2), SiteSpec("west", hosts=2)], seed=17
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    return system, cls


class TestBackoffMath:
    def test_first_attempt_never_waits(self):
        policy = RetryPolicy(base_backoff=10.0)
        assert policy.backoff_delay(1, random.Random(0)) == 0.0

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_backoff=10.0, max_backoff=35.0)
        rng = random.Random(0)
        assert policy.backoff_delay(2, rng) == 10.0
        assert policy.backoff_delay(3, rng) == 20.0
        assert policy.backoff_delay(4, rng) == 35.0  # capped, not 40
        assert policy.backoff_delay(9, rng) == 35.0

    def test_zero_base_disables_backoff(self):
        policy = RetryPolicy(base_backoff=0.0)
        assert policy.backoff_delay(5, random.Random(0)) == 0.0

    def test_jitter_stays_within_fraction_and_is_seeded(self):
        policy = RetryPolicy(base_backoff=100.0, jitter=0.25)
        delays = [policy.backoff_delay(2, random.Random(s)) for s in range(30)]
        assert all(75.0 <= d <= 125.0 for d in delays)
        again = [policy.backoff_delay(2, random.Random(s)) for s in range(30)]
        assert delays == again  # same seeds, same jitter

    def test_default_policy_is_plain_four_attempts(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 4
        assert DEFAULT_RETRY_POLICY.base_backoff == 0.0
        assert not DEFAULT_RETRY_POLICY.retry_unreachable


class TestRetryCounters:
    def test_clean_call_is_one_attempt_no_rebind(self, legion_pair):
        system, cls = legion_pair
        binding = system.create_instance(cls.loid)
        client = system.new_client("clean")
        client.runtime.stats.reset()
        system.call(binding.loid, "Ping", client=client)
        stats = client.runtime.stats
        assert stats.attempts == stats.invocations
        assert stats.rebinds == 0
        assert stats.budget_exhausted == 0

    def test_stale_binding_counts_a_rebind(self, legion_pair):
        system, cls = legion_pair
        binding = system.create_instance(cls.loid)
        client = system.new_client("rebinder")
        system.call(binding.loid, "Ping", client=client)  # warm cache
        row = system.call(cls.loid, "GetRow", binding.loid)
        system.call(row.current_magistrates[0], "Deactivate", binding.loid)
        client.runtime.stats.reset()
        system.call(binding.loid, "Ping", client=client)
        stats = client.runtime.stats
        assert stats.rebinds == 1
        assert stats.refreshes == 1
        assert stats.attempts == 2  # dead address, then the fresh one

    def test_budget_exhaustion_is_counted_and_bounded(self, legion_pair):
        system, cls = legion_pair
        binding = system.create_instance(cls.loid)
        client = system.new_client("budgeted")
        system.call(binding.loid, "Ping", client=client)
        client.runtime.retry_policy = RetryPolicy(
            max_attempts=50,
            base_backoff=100.0,
            max_backoff=100.0,
            budget=250.0,
            retry_unreachable=True,
        )
        client.runtime.default_timeout = 40.0  # bounds the refresh legs too
        # Black-hole every link: calls time out, retries burn the budget.
        from repro.net.latency import LinkClass

        for link in LinkClass:
            system.network.drop_probability[link] = 1.0
        started = system.kernel.now
        with pytest.raises(errors.BindingNotFound):
            system.call(binding.loid, "Ping", client=client, timeout=40.0)
        assert client.runtime.stats.budget_exhausted == 1
        # The budget bounds the whole invoke, not any single attempt: two
        # 40ms attempts + refreshes + one backoff fit; a 50-attempt loop
        # would not.
        assert system.kernel.now - started <= 500.0

    def test_traced_retry_chain_records_backoffs(self, legion_pair):
        system, cls = legion_pair
        binding = system.create_instance(cls.loid)
        client = system.new_client("traced")
        system.call(binding.loid, "Ping", client=client)
        row = system.call(cls.loid, "GetRow", binding.loid)
        system.call(row.current_magistrates[0], "Deactivate", binding.loid)
        client.runtime.retry_policy = RetryPolicy(
            max_attempts=6, base_backoff=15.0, retry_unreachable=True
        )
        tracer = system.enable_tracing()
        system.call(binding.loid, "Ping", client=client)
        retries = [s for s in tracer.spans if s.name == "retry-backoff"]
        assert retries, "patient retry after a stale binding must be traced"
        invokes = [s for s in tracer.spans if s.name == "invoke Ping"]
        assert any((s.annotations or {}).get("attempts", 1) > 1 for s in invokes)


class TestRefreshCoalescing:
    def test_concurrent_invokes_share_one_refresh(self, legion_pair):
        """N in-flight calls to one dead address: exactly one GetBinding."""
        system, cls = legion_pair
        binding = system.create_instance(cls.loid)
        client = system.new_client("storm")
        system.call(binding.loid, "Get", client=client)  # warm cache
        row = system.call(cls.loid, "GetRow", binding.loid)
        system.call(row.current_magistrates[0], "Deactivate", binding.loid)
        client.runtime.stats.reset()
        futures = [
            system.spawn(client.runtime.invoke(binding.loid, "Get"))
            for _ in range(8)
        ]
        system.kernel.run()
        assert all(f.result() == 0 for f in futures)
        stats = client.runtime.stats
        assert stats.stale_detected == 8  # everyone hit the dead address
        assert stats.refreshes == 1  # ...but only one refresh went out
        assert stats.rebinds == 8  # and everyone got the fresh binding

    def test_failed_refresh_fails_all_waiters_once(self, legion_pair):
        system, cls = legion_pair
        binding = system.create_instance(cls.loid)
        client = system.new_client("doomed")
        system.call(binding.loid, "Get", client=client)
        system.call(cls.loid, "Delete", binding.loid)
        client.runtime.stats.reset()
        futures = [
            system.spawn(client.runtime.invoke(binding.loid, "Get"))
            for _ in range(5)
        ]
        system.kernel.run()
        for fut in futures:
            with pytest.raises(errors.LegionError):
                fut.result()
        # Deletion gossip may pre-clean some caches; what matters is that
        # concurrent losers never multiply refresh traffic.
        assert client.runtime.stats.refreshes <= 1
