"""Property: no request pends forever, whatever the network does.

Under seeded message drops and timed partitions, every request a runtime
sends settles exactly one way -- reply, timeout, delivery failure, or
cancellation -- and nothing is left in any ``_pending`` table once the
kernel drains.  This pins the RuntimeStats reconciliation documented on
:class:`repro.core.runtime.RuntimeStats`.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faults.driver import ChaosDriver
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.flow.config import FlowConfig
from repro.metrics.counters import ComponentKind, MetricsRegistry
from repro.net.latency import LinkClass
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl, SerialServiceImpl
from repro.workloads.generators import OpenLoopDriver, TrafficDriver


def _reconcile(runtime):
    """The identity written out: the reference ``LegionRuntime.settled``
    is pinned against (every other caller uses the property)."""
    stats = runtime.stats
    settled = (
        stats.replies_received
        + stats.timeouts
        + stats.delivery_failures
        + stats.cancelled
        + stats.shed
    )
    written_out = stats.requests_sent == settled and not runtime._pending
    assert runtime.settled == written_out
    return written_out


@settings(max_examples=12, suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 2**16),
    drop_wide=st.floats(0.0, 0.6),
    drop_site=st.floats(0.0, 0.4),
    partition_at=st.one_of(st.none(), st.floats(1.0, 80.0)),
)
def test_every_request_settles(seed, drop_wide, drop_site, partition_at):
    system = LegionSystem.build(
        [SiteSpec("east", hosts=2), SiteSpec("west", hosts=2)], seed=seed
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    bindings = [system.create_instance(cls.loid) for _ in range(3)]
    clients = [
        system.new_client(f"c{i}", site=site)
        for i, site in enumerate(["east", "west", "east"])
    ]

    system.network.drop_probability[LinkClass.WIDE_AREA] = drop_wide
    system.network.drop_probability[LinkClass.SAME_SITE] = drop_site
    if partition_at is not None:
        driver = ChaosDriver(system, FaultPlan(), FaultLog())
        system.kernel.post(
            partition_at, lambda: driver.partition("east", "west", duration=60.0)
        )

    rng = system.services.rng.stream("settlement-targets")
    traffic = TrafficDriver(
        system.kernel,
        clients,
        choose_call=lambda _c: (bindings[rng.randrange(len(bindings))].loid, "Get", ()),
        calls_per_client=8,
        think_time=5.0,
        timeout=150.0,
    )
    stats_future = traffic.start()
    system.kernel.run()

    stats = stats_future.result()
    assert stats.calls_issued == len(clients) * 8
    assert stats.calls_succeeded + stats.calls_failed == stats.calls_issued

    for runtime in system.runtimes(clients):
        assert _reconcile(runtime), (
            f"{runtime!r} leaked a request: {runtime.stats}"
        )


def test_shed_storm_settles_and_every_shed_ledger_agrees():
    """Overload instead of faults: sheds are settlements, and the three
    shed ledgers (client wire replies, server SHED counters, FaultLog
    incidents) count the same events."""
    system = LegionSystem.build(
        [SiteSpec("main", hosts=2)],
        seed=21,
        flow=FlowConfig(
            capacity=1,
            queue_limit=2,
            service_estimate=2.0,
            admit_kinds=frozenset({ComponentKind.APPLICATION}),
        ),
    )
    system.services.fault_log = FaultLog()
    cls = system.create_class(
        "SerialService", factory=lambda: SerialServiceImpl(service_time=2.0)
    )
    binding = system.create_instance(cls.loid)
    clients = [system.new_client(f"c{i}") for i in range(3)]
    system.reset_measurements()

    driver = OpenLoopDriver(
        system.kernel,
        clients,
        choose_call=lambda _c: (binding.loid, "Work", ()),
        schedule=[(60.0, 1.0)],  # 3 req/ms offered against 0.5 req/ms capacity
        timeout=50.0,
    )
    stats_future = driver.start()
    system.kernel.run()

    stats = stats_future.result()
    assert stats.calls_issued == stats.calls_succeeded + stats.calls_failed

    wire_sheds = sum(c.runtime.stats.shed for c in clients)
    metric_sheds = sum(
        system.services.metrics.snapshot(None, MetricsRegistry.SHED).values()
    )
    log_sheds = system.services.fault_log.count("request-shed")
    assert wire_sheds > 0, "the storm must actually overflow admission"
    assert wire_sheds == metric_sheds == log_sheds

    for runtime in system.runtimes(clients):
        assert _reconcile(runtime), (
            f"{runtime!r} leaked a request: {runtime.stats}"
        )
