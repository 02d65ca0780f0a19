"""Composition: the governor against chaos, overload, and replication.

E17 proves the headline claim at experiment scale; these tests pin the
cross-subsystem contracts at unit scale:

* governed overload + seeded chaos still settles every request
  (``requests_sent == replies + timeouts + delivery_failures + cancelled
  + shed``) and keeps the three shed ledgers reconciled;
* a Failed-band pause sheds non-critical traffic with the first-class
  ``"paused"`` reason while the critical allowlist keeps serving;
* the replication coupling: under-replication evidence degrades the
  band, the band accelerates a real ReplicaRepairService, and repair
  calms the evidence back down.
"""

from __future__ import annotations

from repro.core.runtime import RetryPolicy
from repro.errors import LegionError, Overloaded
from repro.faults.driver import ChaosDriver, eligible_hosts
from repro.faults.log import FaultLog
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.recovery import RecoverySweeper
from repro.flow import FlowConfig
from repro.health import (
    DEFAULT_POLICIES,
    Band,
    Governor,
    GovernorConfig,
    HealthLedger,
    enable_governor,
)
from repro.metrics.counters import ComponentKind
from repro.replication import ReplicaRepairService, enable_replication
from repro.replication.store import ReplicatedStoreImpl
from repro.simkernel.futures import gather
from repro.simkernel.kernel import Timeout
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl, SerialServiceImpl

SERVICE_TIME = 2.0
FLOW = FlowConfig(
    capacity=1,
    queue_limit=10,
    service_estimate=SERVICE_TIME,
    admit_kinds=frozenset({ComponentKind.APPLICATION}),
    credit_window=8,
)
RETRY = RetryPolicy(
    max_attempts=4,
    base_backoff=5.0,
    max_backoff=50.0,
    retry_unreachable=True,
    retry_tokens=40.0,
    retry_token_refill=0.5,
)


def one_step_each(ledger) -> bool:
    for record in ledger.records:
        a = Band[record.from_band.upper()]
        b = Band[record.to_band.upper()]
        if abs(b - a) != 1:
            return False
    return True


class TestGovernedChaosOverload:
    def test_settlement_and_triple_entry_survive_the_composition(self):
        system = LegionSystem.build(
            [SiteSpec("main", hosts=3)], seed=47, flow=FLOW
        )
        log = FaultLog()
        system.services.fault_log = log
        site0 = system.sites[0].name
        protected = system.host_servers[system.site_hosts[site0][0]].loid
        cls = system.create_class(
            "Serial",
            factory=lambda: SerialServiceImpl(service_time=SERVICE_TIME),
            magistrate=system.magistrates[site0].loid,
            host=protected,
        )
        instance = system.create_instance(cls.loid)
        row = system.call(cls.loid, "GetRow", instance.loid)
        system.call(row.current_magistrates[0], "Checkpoint", instance.loid)
        fodder_cls = system.create_class(
            "Fodder",
            factory=CounterImpl,
            magistrate=system.magistrates[site0].loid,
            host=protected,
        )
        fodder = [system.create_instance(fodder_cls.loid) for _ in range(3)]
        for binding in fodder:
            row = system.call(fodder_cls.loid, "GetRow", binding.loid)
            system.call(row.current_magistrates[0], "Checkpoint", binding.loid)

        clients = [system.new_client(f"comp-{i}") for i in range(2)]
        for client in clients:
            client.runtime.retry_policy = RETRY

        sweeper = RecoverySweeper(system, interval=100.0)
        sweeper.start()
        governor = enable_governor(
            system,
            GovernorConfig(critical=frozenset({str(instance.loid)})),
        )
        governor.track(*clients)
        governor.attach(sweeper=sweeper)

        plan = FaultPlan.generate(
            system.services.rng.stream("comp-faults"),
            horizon=150.0,
            intensity=30.0,
            hosts=eligible_hosts(system),
            sites=[s.name for s in system.sites],
            objects=[str(b.loid) for b in fodder],
            mix={FaultKind.HOST_CRASH: 0.4, FaultKind.OBJECT_CRASH: 0.6},
        )
        driver = ChaosDriver(system, plan, log)
        system.kernel.post(100.0, driver.start)

        def one_call(client):
            try:
                yield from client.runtime.invoke(
                    instance.loid, "Work", timeout=40.0
                )
            except LegionError:
                pass

        def storm(client):
            # Open loop far past capacity during the storm window (the
            # serial service clears 0.5/ms; 2 clients at 1/ms each offer
            # 4x), then a calm trickle so the band can walk back.
            calls = []
            for _ in range(80):
                calls.append(system.kernel.spawn(one_call(client)))
                yield Timeout(1.0)
            for _ in range(10):
                calls.append(system.kernel.spawn(one_call(client)))
                yield Timeout(20.0)
            for fut in calls:
                yield fut

        futures = [system.kernel.spawn(storm(c)) for c in clients]
        system.kernel.run_until_complete(
            gather(futures), max_events=10_000_000
        )
        sweeper.stop()
        governor.stop_loop()
        system.kernel.run()

        # The composed run overloaded for real (evidence of composition).
        assert any(c.runtime.stats.shed > 0 for c in clients)
        assert log.injected  # chaos really fired
        # Settlement identity holds on every runtime in the system.
        for runtime in system.runtimes(clients):
            assert runtime.settled
        # Triple entry: metrics == faultlog == wire on the final snapshot.
        governor.poll()
        evidence = governor.last_evidence
        assert evidence.consistent, evidence.ledgers()
        # The band timeline never skipped a band and its ledger verifies.
        assert one_step_each(governor.ledger)
        assert HealthLedger.verify_records(governor.ledger.to_json()) is None
        governor.stop()

    def test_failed_pause_sheds_non_critical_but_serves_critical(self):
        system = LegionSystem.build(
            [SiteSpec("main", hosts=2)], seed=53, flow=FLOW
        )
        cls = system.create_class("Counter", factory=CounterImpl)
        critical = system.create_instance(cls.loid)
        bystander = system.create_instance(cls.loid)
        client = system.new_client("pause-client")
        client.runtime.retry_policy = RetryPolicy(max_attempts=1)

        governor = Governor(
            system, GovernorConfig(critical=frozenset({str(critical.loid)}))
        )
        governor.machine.band = Band.FAILED
        governor._apply(DEFAULT_POLICIES[Band.FAILED])

        outcomes = {}

        def call(name, loid):
            try:
                yield from client.runtime.invoke(loid, "Increment", 1, timeout=30.0)
                outcomes[name] = "ok"
            except Overloaded as exc:
                reason = "paused" if "paused" in str(exc) else str(exc)
                outcomes[name] = f"shed:{reason}"
            except LegionError as exc:
                outcomes[name] = type(exc).__name__

        system.kernel.spawn(call("critical", critical.loid))
        system.kernel.spawn(call("bystander", bystander.loid))
        system.kernel.run()

        assert outcomes["critical"] == "ok"
        assert outcomes["bystander"] == "shed:paused"
        # One step back up unpauses the bystander.
        governor.machine.band = Band.COMPROMISED
        governor._apply(DEFAULT_POLICIES[Band.COMPROMISED])
        system.kernel.spawn(call("bystander", bystander.loid))
        system.kernel.run()
        assert outcomes["bystander"] == "ok"
        governor.stop()


class TestGovernorReplication:
    def test_under_replication_degrades_and_repair_recovers(self):
        system = LegionSystem.build(
            [SiteSpec(f"site{i}", hosts=2) for i in range(3)], seed=59
        )
        system.services.fault_log = FaultLog()
        enable_replication(system)
        cls = system.create_class("GeoStore", factory=ReplicatedStoreImpl)
        groups = [
            system.call(cls.loid, "CreateReplicated", 3, "first", i)
            for i in range(2)
        ]
        system.kernel.run()

        repair = ReplicaRepairService(system, interval=200.0)
        governor = Governor(system)
        governor.attach(repair=repair)

        # Crash one replica of each group: 2 under-replicated groups > 1.
        for binding in groups:
            element = binding.address.elements[0]
            system.host_servers[element.host].impl.crash_object(
                binding.loid, "test crash"
            )
            system.call(cls.loid, "ReportDeadReplica", binding.loid, element)
        system.kernel.run()

        governor.poll()
        assert governor.band is Band.STRAINED
        assert repair.interval == 100.0  # 200 * Strained's 0.5

        # Let the accelerated repair service rebuild the groups.
        repair.start()

        def idle(span=300.0):
            yield Timeout(span)

        system.kernel.run_until_complete(system.kernel.spawn(idle(1000.0)))
        repair.stop()
        system.kernel.run()
        assert governor.collector.snapshot().under_replicated == 0

        # Calm evidence walks the band back after the dwell.
        recovered = False
        for _ in range(12):
            system.kernel.run_until_complete(system.kernel.spawn(idle()))
            if governor.poll() is not None and governor.band is Band.STABLE:
                recovered = True
                break
        assert recovered
        assert repair.interval == 200.0  # baseline restored at Stable
        assert HealthLedger.verify_records(governor.ledger.to_json()) is None
        assert [r.direction for r in governor.ledger.records] == [
            "degrade",
            "recover",
        ]
        governor.stop()
