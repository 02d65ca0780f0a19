"""EvidenceCollector: reconciled snapshots off the system's own ledgers."""

from __future__ import annotations

from repro.core.runtime import RetryPolicy
from repro.faults.log import FaultLog
from repro.flow import FlowConfig
from repro.health import EvidenceCollector
from repro.metrics.counters import ComponentKind
from repro.replication import enable_replication
from repro.replication.store import ReplicatedStoreImpl
from repro.simkernel.kernel import Timeout
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import SerialServiceImpl

NO_RETRY = RetryPolicy(max_attempts=1)

#: Serial service, no queue: every concurrent extra arrival sheds.
FLOW = FlowConfig(
    capacity=1,
    queue_limit=0,
    service_estimate=5.0,
    admit_kinds=frozenset({ComponentKind.APPLICATION}),
)


def build(seed=21, flow=FLOW, fault_log=True):
    system = LegionSystem.build([SiteSpec("main", hosts=2)], seed=seed, flow=flow)
    if fault_log:
        system.services.fault_log = FaultLog()
    cls = system.create_class(
        "Serial", factory=lambda: SerialServiceImpl(service_time=5.0)
    )
    instance = system.create_instance(cls.loid)
    client = system.new_client("evidence-client")
    client.runtime.retry_policy = NO_RETRY
    return system, instance, client


def shed_some(system, instance, client, n=3):
    """Fire ``n`` concurrent calls at the serial no-queue service: one is
    served, ``n - 1`` shed.  Returns the shed count."""

    def call():
        try:
            yield from client.runtime.invoke(instance.loid, "Work", timeout=60.0)
        except Exception:
            pass

    futures = [system.kernel.spawn(call()) for _ in range(n)]
    system.kernel.run()
    del futures
    return n - 1


class TestTripleEntry:
    def test_tracked_caller_reconciles_three_ledgers(self):
        system, instance, client = build()
        collector = EvidenceCollector(system)
        collector.track(client)
        sheds = shed_some(system, instance, client)
        snap = collector.snapshot()
        assert snap.shed_metrics == sheds
        assert snap.shed_faultlog == sheds
        assert snap.shed_wire == sheds
        assert snap.consistent
        assert snap.ledgers() == {
            "metrics": sheds,
            "faultlog": sheds,
            "wire": sheds,
        }

    def test_untracked_caller_breaks_the_wire_column(self):
        system, instance, client = build()
        collector = EvidenceCollector(system)  # client never tracked
        sheds = shed_some(system, instance, client)
        snap = collector.snapshot()
        assert snap.shed_metrics == sheds
        assert snap.shed_wire == 0
        assert not snap.consistent

    def test_without_faultlog_the_column_mirrors_metrics(self):
        system, instance, client = build(fault_log=False)
        collector = EvidenceCollector(system)
        collector.track(client)
        sheds = shed_some(system, instance, client)
        snap = collector.snapshot()
        assert snap.shed_faultlog == snap.shed_metrics == sheds
        assert snap.consistent
        assert snap.loss_backlog == 0


class TestSignals:
    def test_first_snapshot_has_zero_window_and_rates(self):
        system, _instance, _client = build()
        snap = EvidenceCollector(system).snapshot()
        assert snap.window == 0.0
        assert snap.shed_rate == 0.0
        assert snap.retry_denied_rate == 0.0

    def test_shed_rate_diffs_across_the_window(self):
        system, instance, client = build()
        collector = EvidenceCollector(system)
        collector.track(client)
        collector.snapshot()  # anchor sample at t0
        t0 = system.kernel.now
        sheds = shed_some(system, instance, client)
        snap = collector.snapshot()
        span = system.kernel.now - t0
        assert snap.window == span > 0
        assert snap.shed_rate == sheds / span

    def test_old_samples_slide_out_of_the_window(self):
        system, instance, client = build()
        collector = EvidenceCollector(system)
        collector.track(client)
        sheds = shed_some(system, instance, client)
        collector.snapshot()
        # Idle past the window: the hot sample ages out, the rate decays
        # to zero even though the cumulative total still carries the sheds.
        def idle():
            yield Timeout(20.0)

        for _ in range(8):
            fut = system.kernel.spawn(idle())
            system.kernel.run_until_complete(fut)
            collector.snapshot()
        snap = collector.snapshot()
        assert snap.shed_metrics == sheds
        assert snap.shed_rate == 0.0

    def test_loss_backlog_is_lost_minus_recovered(self):
        system, _instance, _client = build()
        collector = EvidenceCollector(system)
        log = system.services.fault_log
        now = system.kernel.now
        log.inject(now, "object-crash", "1.9.100")
        log.inject(now, "object-lost", "1.9.101")
        assert collector.snapshot().loss_backlog == 2
        log.observe(now, "object-recovered", "1.9.100")
        snap = collector.snapshot()
        assert snap.loss_backlog == 1
        assert snap.faults_lost == 2
        assert snap.faults_recovered == 1

    def test_queue_depth_sees_midflight_backlog(self):
        system, instance, client = build(
            flow=FlowConfig(
                capacity=1,
                queue_limit=8,
                service_estimate=5.0,
                admit_kinds=frozenset({ComponentKind.APPLICATION}),
            )
        )
        collector = EvidenceCollector(system)
        depths = []

        def call():
            try:
                yield from client.runtime.invoke(
                    instance.loid, "Work", timeout=120.0
                )
            except Exception:
                pass

        def probe():
            yield Timeout(8.0)  # arrivals have landed, service still busy
            depths.append(collector.snapshot().queue_depth)

        for _ in range(5):
            system.kernel.spawn(call())
        system.kernel.spawn(probe())
        system.kernel.run()
        assert depths and depths[0] >= 3  # 1 in service + >= 2 queued
        assert collector.snapshot().queue_depth == 0  # drained

    def test_under_replicated_reads_the_global_index(self):
        system = LegionSystem.build(
            [SiteSpec(f"site{i}", hosts=2) for i in range(3)], seed=5
        )
        enable_replication(system)
        cls = system.create_class("GeoStore", factory=ReplicatedStoreImpl)
        binding = system.call(cls.loid, "CreateReplicated", 3, "first", 1)
        system.kernel.run()  # drain placement gossip
        collector = EvidenceCollector(system)
        assert collector.snapshot().under_replicated == 0
        element = binding.address.elements[0]
        system.host_servers[element.host].impl.crash_object(
            binding.loid, "test crash"
        )
        system.call(cls.loid, "ReportDeadReplica", binding.loid, element)
        system.kernel.run()  # drain the removal gossip
        assert collector.snapshot().under_replicated == 1

    def test_without_replication_under_replicated_is_zero(self):
        system, _instance, _client = build()
        assert EvidenceCollector(system).snapshot().under_replicated == 0


class TestJsonForm:
    def test_to_json_round_trips_all_fields(self):
        system, instance, client = build()
        collector = EvidenceCollector(system)
        collector.track(client)
        shed_some(system, instance, client)
        snap = collector.snapshot()
        doc = snap.to_json()
        assert doc["shed_metrics"] == snap.shed_metrics
        assert doc["time"] == round(snap.time, 6)
        assert set(doc) == {
            "time", "window", "shed_rate", "retry_denied_rate",
            "loss_backlog", "under_replicated", "queue_depth",
            "queue_depth_p90", "shed_metrics", "shed_faultlog",
            "shed_wire", "retry_denied_total", "faults_lost",
            "faults_recovered",
        }
