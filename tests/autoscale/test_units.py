"""Unit tests for the autoscaler's sensing and routing pieces.

The LoadMonitor's whole contract is "observe without touching": counter
deltas over simulated-time windows (surviving a mid-flight counter
reset).  The
ClonePoolRouter's contract is epoch-gated refresh plus a round-robin
index that survives pool shrinkage.
"""

from repro.autoscale import ClonePoolRouter, LoadMonitor, LoadSample
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl


def _build(seed=3):
    system = LegionSystem.build([SiteSpec("east", hosts=2)], seed=seed)
    cls = system.create_class("Hot", factory=CounterImpl)
    return system, cls


class TestLoadMonitor:
    def test_sample_rates_are_deltas_over_the_window(self):
        system, cls = _build()
        monitor = LoadMonitor(system)
        monitor.sample()  # baseline
        before = system.kernel.now
        for _ in range(5):
            system.call(cls.loid, "CloneEpoch")
        window = system.kernel.now - before
        sample = monitor.sample()
        assert sample.time == system.kernel.now
        # 5 requests landed on the hot class inside the window.
        assert sample.rates[str(cls.loid)] * window == 5
        # A second immediate sample has a zero-length window: no rates.
        assert monitor.sample().rates == {}

    def test_sample_rebaselines_after_a_counter_reset(self):
        system, cls = _build()
        monitor = LoadMonitor(system)
        for _ in range(8):
            system.call(cls.loid, "CloneEpoch")
        monitor.sample()
        system.reset_measurements()
        before = system.kernel.now
        for _ in range(2):
            system.call(cls.loid, "CloneEpoch")
        window = system.kernel.now - before
        sample = monitor.sample()
        # The cumulative count went 8 -> 2; a naive delta would be -6.
        assert sample.rates[str(cls.loid)] * window == 2

    def test_pool_aggregation_ignores_foreign_components(self):
        sample = LoadSample(
            time=0.0,
            rates={"a": 1.0, "b": 2.0, "c": 4.0},
        )
        assert sample.pool_rate(["a", "b", "missing"]) == 3.0


class TestClonePoolRouter:
    def test_refresh_is_epoch_gated(self):
        system, cls = _build()
        client = system.new_client("router-client")
        client.runtime.seed_binding(cls)
        router = ClonePoolRouter(client, cls)
        fut = system.spawn(router.refresh_once())
        assert system.kernel.run_until_complete(fut) is True
        assert [b.loid for b in router.pool] == [cls.loid]
        # Same epoch: the poll answers False without re-fetching the pool.
        fut = system.spawn(router.refresh_once())
        assert system.kernel.run_until_complete(fut) is False
        # The pool changed: the next poll fetches the grown pool.
        clone = system.call(cls.loid, "Clone")
        fut = system.spawn(router.refresh_once())
        assert system.kernel.run_until_complete(fut) is True
        assert [b.loid for b in router.pool] == [cls.loid, clone.loid]

    def test_choose_round_robins_and_survives_shrink(self):
        system, cls = _build()
        client = system.new_client("router-client")
        client.runtime.seed_binding(cls)
        clone = system.call(cls.loid, "Clone")
        router = ClonePoolRouter(client, cls)
        fut = system.spawn(router.refresh_once())
        system.kernel.run_until_complete(fut)
        first, second, third = router.choose(), router.choose(), router.choose()
        assert [first, second, third] == [cls.loid, clone.loid, cls.loid]
        # Shrink the pool; the next refresh re-bounds the rotating index.
        system.call(cls.loid, "RetireClone", clone.loid)
        fut = system.spawn(router.refresh_once())
        system.kernel.run_until_complete(fut)
        assert router._rr < len(router.pool)
        assert router.choose() == cls.loid
