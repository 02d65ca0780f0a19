"""ChaosDriver faults and the self-healing runtime, end to end."""

import pytest

from repro.core.runtime import RetryPolicy
from repro.faults.driver import ChaosDriver, eligible_hosts
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoverySweeper
from repro.net.latency import LinkClass
from repro.system.legion import LegionSystem, SiteSpec

PATIENT = RetryPolicy(
    max_attempts=10,
    base_backoff=20.0,
    max_backoff=200.0,
    retry_unreachable=True,
)


def _build(seed=21):
    """A 2-site testbed whose Counter class lives on a protected host."""
    system = LegionSystem.build(
        [SiteSpec("east", hosts=3), SiteSpec("west", hosts=3)], seed=seed
    )
    from repro.workloads.apps import CounterImpl

    site0 = system.sites[0].name
    cls = system.create_class(
        "Counter",
        factory=CounterImpl,
        magistrate=system.magistrates[site0].loid,
        host=system.host_servers[system.site_hosts[site0][0]].loid,
    )
    return system, cls


def _find_host(system, loid):
    """The host id whose process table holds ``loid`` (live)."""
    for host_id, server in system.host_servers.items():
        entry = server.impl.processes.find(loid)
        if entry is not None and not entry.crashed:
            return host_id
    return None


def _instance_on_crashable_host(system, cls):
    """Create counters until one lands on a non-protected host."""
    crashable = set(eligible_hosts(system))
    for _ in range(16):
        binding = system.create_instance(cls.loid)
        host_id = _find_host(system, binding.loid)
        if host_id in crashable:
            return binding, host_id
    raise AssertionError("placement never used a crashable host")


def _checkpoint(system, cls, binding):
    row = system.call(cls.loid, "GetRow", binding.loid)
    system.call(row.current_magistrates[0], "Checkpoint", binding.loid)
    return row.current_magistrates[0]


def _sweep_all(system):
    for site in sorted(system.magistrates):
        fut = system.spawn(system.magistrates[site].impl.sweep_hosts())
        system.kernel.run_until_complete(fut)


class TestHostCrash:
    def test_crash_kills_residents_and_unregisters_endpoints(self):
        system, cls = _build()
        binding, host_id = _instance_on_crashable_host(system, cls)
        log = FaultLog()
        driver = ChaosDriver(system, FaultPlan(), log)
        driver.crash_host(host_id)
        server = system.host_servers[host_id]
        assert not server.active
        assert not server.impl.processes.running()
        assert any(
            i.kind == "object-lost" and i.target == str(binding.loid)
            for i in log.injected
        )

    def test_protected_hosts_are_never_crashed(self):
        system, _cls = _build()
        protected = system.site_hosts[system.sites[0].name][0]
        assert protected not in eligible_hosts(system)
        driver = ChaosDriver(system, FaultPlan(), FaultLog())
        driver.crash_host(protected)
        assert system.host_servers[protected].active

    def test_sweep_recovers_checkpointed_state_on_surviving_host(self):
        system, cls = _build()
        binding, host_id = _instance_on_crashable_host(system, cls)
        system.call(binding.loid, "Increment", 7)
        _checkpoint(system, cls, binding)
        log = FaultLog()
        driver = ChaosDriver(system, FaultPlan(), log)
        driver.start()  # installs services.fault_log
        driver.crash_host(host_id)
        _sweep_all(system)
        new_host = _find_host(system, binding.loid)
        assert new_host is not None and new_host != host_id
        assert system.call(binding.loid, "Get") == 7
        assert str(binding.loid) in log.recovered_objects()

    def test_reactive_recovery_via_stale_binding_path(self):
        system, cls = _build()
        binding, host_id = _instance_on_crashable_host(system, cls)
        system.call(binding.loid, "Increment", 3)
        _checkpoint(system, cls, binding)
        client = system.new_client("patient")
        client.runtime.retry_policy = PATIENT
        system.call(binding.loid, "Get", client=client)  # warm the cache
        ChaosDriver(system, FaultPlan(), FaultLog()).crash_host(host_id)
        # No sweep: the call itself must detect the stale binding and
        # drive RecoverObject through the class.
        assert system.call(binding.loid, "Get", client=client) == 3
        assert client.runtime.stats.rebinds >= 1

    def test_recovery_survives_a_second_crash(self):
        system, cls = _build()
        binding, host_id = _instance_on_crashable_host(system, cls)
        system.call(binding.loid, "Increment", 9)
        _checkpoint(system, cls, binding)
        driver = ChaosDriver(system, FaultPlan(), FaultLog())
        driver.start()
        driver.crash_host(host_id)
        _sweep_all(system)
        second_host = _find_host(system, binding.loid)
        if second_host in set(eligible_hosts(system)):
            driver.crash_host(second_host)
            _sweep_all(system)
        # The checkpoint OPR must survive being consumed by the first
        # reactivation, or the second one would lose the state.
        assert system.call(binding.loid, "Get") == 9


class TestObjectCrash:
    def test_crash_object_then_recovery(self):
        system, cls = _build()
        binding, host_id = _instance_on_crashable_host(system, cls)
        system.call(binding.loid, "Increment", 5)
        _checkpoint(system, cls, binding)
        log = FaultLog()
        driver = ChaosDriver(system, FaultPlan(), log)
        driver.start()
        driver.crash_object(str(binding.loid))
        assert any(i.kind == "object-crash" for i in log.injected)
        _sweep_all(system)
        assert system.call(binding.loid, "Get") == 5

    def test_crash_object_misses_are_noops(self):
        system, _cls = _build()
        log = FaultLog()
        ChaosDriver(system, FaultPlan(), log).crash_object("O<999.999>")
        assert log.injected == []


class TestTransientFaults:
    def test_link_degrade_restores_prior_probability(self):
        system, _cls = _build()
        network = system.network
        before = network.drop_probability.get(LinkClass.WIDE_AREA, 0.0)
        log = FaultLog()
        driver = ChaosDriver(system, FaultPlan(), log)
        driver.degrade_link("wide-area", 0.5, duration=40.0)
        assert network.drop_probability[LinkClass.WIDE_AREA] == 0.5
        system.kernel.run()
        assert network.drop_probability[LinkClass.WIDE_AREA] == before
        kinds = [i.kind for i in log.injected]
        assert kinds == ["link-degrade", "link-restore"]

    def test_partition_heals_after_duration(self):
        system, cls = _build()
        binding = system.create_instance(cls.loid)
        east, west = system.sites[0].name, system.sites[1].name
        driver = ChaosDriver(system, FaultPlan(), FaultLog())
        driver.partition(east, west, duration=30.0)
        client = system.new_client("w", site=west)
        client.runtime.retry_policy = PATIENT
        # The patient client waits the heal out and then succeeds.
        assert system.call(binding.loid, "Get", client=client, timeout=100.0) == 0


class TestScheduledChaos:
    def test_scheduled_plan_is_deterministic_and_survivable(self):
        def run_once():
            system, cls = _build(seed=33)
            bindings = [system.create_instance(cls.loid) for _ in range(6)]
            for i, b in enumerate(bindings):
                system.call(b.loid, "Increment", i + 1)
                _checkpoint(system, cls, b)
            log = FaultLog()
            plan = FaultPlan.generate(
                system.services.rng.stream("chaos"),
                horizon=600.0,
                intensity=4.0,
                hosts=eligible_hosts(system),
                sites=[s.name for s in system.sites],
                objects=[str(b.loid) for b in bindings],
            )
            driver = ChaosDriver(system, plan, log)
            sweeper = RecoverySweeper(system, interval=80.0)
            driver.start()
            sweeper.start()
            system.kernel.run(until=system.kernel.now + 900.0)
            sweeper.stop()
            system.kernel.run()
            _sweep_all(system)
            values = [system.call(b.loid, "Get") for b in bindings]
            return plan, log, values

        plan_a, log_a, values_a = run_once()
        plan_b, log_b, values_b = run_once()
        assert plan_a.events == plan_b.events
        assert log_a.injected == log_b.injected
        assert values_a == values_b == [1, 2, 3, 4, 5, 6]
        lost = set(log_a.lost_objects())
        assert lost <= set(log_a.recovered_objects())

    def test_sweeper_stop_lets_kernel_drain(self):
        system, _cls = _build()
        sweeper = RecoverySweeper(system, interval=50.0)
        sweeper.start()
        procs = list(sweeper._procs)
        system.kernel.run(until=system.kernel.now + 120.0)
        sweeper.stop()
        system.kernel.run()  # must terminate: the sweep loops are dead
        assert not any(p.alive for p in procs)
