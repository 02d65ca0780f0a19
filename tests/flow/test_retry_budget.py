"""Satellite: the global retry token bucket bounds retry volume.

A partition used to turn every patient caller into a retry storm: N
concurrent invokes times max_attempts, all hammering the dead link.
``RetryPolicy.retry_tokens`` installs one *per-runtime* bucket that all
of a runtime's invokes share -- total retries cannot exceed the budget
no matter how many calls are in flight.
"""

from __future__ import annotations

from repro.core.runtime import RetryPolicy
from repro.errors import BindingNotFound, PartitionedError
from repro.faults.driver import ChaosDriver
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

TOKENS = 6.0


def test_partition_retry_volume_is_capped_by_the_token_bucket():
    system = LegionSystem.build(
        [SiteSpec("east", hosts=25), SiteSpec("west", hosts=25)], seed=5
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    binding = system.create_instance(
        cls.loid, magistrate=system.magistrates["west"].loid
    )
    client = system.new_client("storm", site="east")
    client.runtime.retry_policy = RetryPolicy(
        max_attempts=25,
        base_backoff=4.0,
        retry_unreachable=True,
        retry_tokens=TOKENS,
    )
    driver = ChaosDriver(system, FaultPlan(), FaultLog())
    driver.partition("east", "west", duration=10_000.0)

    kernel = system.kernel
    futs = [
        kernel.spawn(client.runtime.invoke(binding.loid, "Get", timeout=50.0))
        for _ in range(8)
    ]
    kernel.run()

    stats = client.runtime.stats
    assert all(f.done() for f in futs)
    assert all(
        isinstance(f.exception(), (PartitionedError, BindingNotFound))
        for f in futs
    ), [f.exception() for f in futs]
    # Every attempt after an invoke's first spends one shared token: the
    # whole runtime's retry volume is bounded by the budget, not by
    # invokes x max_attempts (which would be 8 x 24 = 192 here).
    retries = stats.attempts - stats.invocations
    assert 0 < retries <= TOKENS
    assert stats.retry_denied > 0
    # The bucket never blocks first attempts.
    assert stats.invocations == 8
    assert stats.attempts >= 8


def test_refill_restores_tokens_over_time():
    system = LegionSystem.build(
        [SiteSpec("east", hosts=2), SiteSpec("west", hosts=2)], seed=7
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    binding = system.create_instance(
        cls.loid, magistrate=system.magistrates["west"].loid
    )
    client = system.new_client("patient", site="east")
    client.runtime.retry_policy = RetryPolicy(
        max_attempts=40,
        base_backoff=8.0,
        max_backoff=8.0,  # a constant backoff
        retry_unreachable=True,
        retry_tokens=1.0,
        retry_token_refill=0.05,  # one token per 20 simulated ms
    )
    driver = ChaosDriver(system, FaultPlan(), FaultLog())
    driver.partition("east", "west", duration=100.0)

    kernel = system.kernel
    fut = kernel.spawn(client.runtime.invoke(binding.loid, "Get", timeout=500.0))
    kernel.run()

    # The refill trickles enough retries to outlast the heal: the call
    # eventually lands instead of dying when the initial bucket ran dry.
    assert fut.exception() is None, fut.exception()
    assert fut.result() == 0
    stats = client.runtime.stats
    retries = stats.attempts - stats.invocations
    # Far fewer retries than the 39 an unmetered policy would have fired.
    assert 0 < retries <= 10
