"""Governor policy coupling: bands turn real knobs, stop() restores them."""

from __future__ import annotations

from dataclasses import replace

from repro.autoscale import AutoscaleConfig
from repro.core.runtime import RetryPolicy
from repro.faults.log import FaultLog
from repro.faults.recovery import RecoverySweeper
from repro.flow import FlowConfig
from repro.health import (
    DEFAULT_POLICIES,
    Band,
    BandPolicy,
    Governor,
    GovernorConfig,
    enable_governor,
)
from repro.metrics.counters import ComponentKind
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

RETRY = RetryPolicy(max_attempts=4, retry_tokens=60.0, retry_token_refill=0.5)
FLOW = FlowConfig(
    capacity=1,
    queue_limit=16,
    service_estimate=2.0,
    admit_kinds=frozenset({ComponentKind.APPLICATION}),
)


def build(seed=31):
    system = LegionSystem.build([SiteSpec("main", hosts=2)], seed=seed, flow=FLOW)
    system.services.fault_log = FaultLog()
    cls = system.create_class("Counter", factory=CounterImpl)
    instance = system.create_instance(cls.loid)
    client = system.new_client("gov-client")
    client.runtime.retry_policy = RETRY
    return system, instance, client


def app_servers(governor):
    return governor.collector.admitted_servers()


def force(governor, band: Band) -> None:
    """Apply one band's policy directly (tests drive _apply, not traffic)."""
    governor.machine.band = band
    governor._apply(DEFAULT_POLICIES[band])


class FakeAutoscaler:
    def __init__(self, config):
        self.config = config


class FakeRepair:
    interval = 400.0
    priority = -1
    pacing = 2.0


class TestPolicyLadder:
    def test_defaults_cover_every_band_and_tighten_monotonically(self):
        assert set(DEFAULT_POLICIES) == set(Band)
        scales = [DEFAULT_POLICIES[b].queue_scale for b in Band]
        assert scales == sorted(scales, reverse=True)
        refills = [DEFAULT_POLICIES[b].refill_scale for b in Band]
        assert refills == sorted(refills, reverse=True)
        assert DEFAULT_POLICIES[Band.STABLE] == BandPolicy()
        only_failed = [b for b in Band if DEFAULT_POLICIES[b].pause_non_critical]
        assert only_failed == [Band.FAILED]


class TestFlowCoupling:
    def test_queue_limit_scales_per_band_from_baseline(self):
        system, _instance, _client = build()
        governor = Governor(system)
        force(governor, Band.ERODING)  # queue_scale 0.5
        for server in app_servers(governor):
            assert server.admission.config.queue_limit == 8
        # Straight to Stable: back to the captured baseline, not 8 * 1.0
        # of a compounded base.
        force(governor, Band.STABLE)
        for server in app_servers(governor):
            assert server.admission.config is FLOW or (
                server.admission.config.queue_limit == 16
            )

    def test_scaling_is_idempotent_not_compounded(self):
        system, _instance, _client = build()
        governor = Governor(system)
        for _ in range(5):
            force(governor, Band.COMPROMISED)  # queue_scale 0.25
        for server in app_servers(governor):
            assert server.admission.config.queue_limit == 4

    def test_retry_refill_scales_on_tracked_runtimes(self):
        system, _instance, client = build()
        governor = Governor(system)
        governor.track(client)
        force(governor, Band.ERODING)  # refill_scale 0.25
        assert client.runtime.retry_policy.retry_token_refill == 0.125
        force(governor, Band.FAILED)  # refill_scale 0.0
        assert client.runtime.retry_policy.retry_token_refill == 0.0
        force(governor, Band.STABLE)
        assert client.runtime.retry_policy.retry_token_refill == 0.5

    def test_unlimited_retry_runtimes_are_left_alone(self):
        system, _instance, client = build()
        client.runtime.retry_policy = RetryPolicy(max_attempts=3)  # no tokens
        governor = Governor(system)
        governor.track(client)
        force(governor, Band.FAILED)
        assert client.runtime.retry_policy.retry_tokens is None
        assert client.runtime.retry_policy.max_attempts == 3


class TestPause:
    def test_failed_pauses_all_but_the_critical_allowlist(self):
        system, instance, _client = build()
        other_cls = system.create_class("Other", factory=CounterImpl)
        system.create_instance(other_cls.loid)
        config = GovernorConfig(critical=frozenset({str(instance.loid)}))
        governor = Governor(system, config)
        force(governor, Band.FAILED)
        paused = {
            s.component.name: s.admission.paused for s in app_servers(governor)
        }
        assert paused[str(instance.loid)] is False
        others = [v for k, v in paused.items() if k != str(instance.loid)]
        assert others and all(others)

    def test_recovery_unpauses(self):
        system, _instance, _client = build()
        governor = Governor(system)
        force(governor, Band.FAILED)
        assert any(s.admission.paused for s in app_servers(governor))
        force(governor, Band.COMPROMISED)
        assert not any(s.admission.paused for s in app_servers(governor))


class TestControllerCoupling:
    def test_autoscale_floor_rises_capped_by_max_clones(self):
        system, _instance, _client = build()
        governor = Governor(system)
        scaler = FakeAutoscaler(
            AutoscaleConfig(high_water=1.0, low_water=0.1, min_clones=0,
                            max_clones=1)
        )
        governor.attach(autoscaler=scaler)
        force(governor, Band.ERODING)  # min_clones policy 2, capped at 1
        assert scaler.config.min_clones == 1
        force(governor, Band.STABLE)
        assert scaler.config.min_clones == 0

    def test_baseline_floor_above_policy_floor_wins(self):
        system, _instance, _client = build()
        governor = Governor(system)
        scaler = FakeAutoscaler(
            AutoscaleConfig(high_water=1.0, low_water=0.1, min_clones=3,
                            max_clones=4)
        )
        governor.attach(autoscaler=scaler)
        force(governor, Band.STRAINED)  # policy floor 1 < baseline 3
        assert scaler.config.min_clones == 3

    def test_sweeper_and_repair_accelerate_per_band(self):
        system, _instance, _client = build()
        governor = Governor(system)
        sweeper = RecoverySweeper(system, interval=120.0)
        repair = FakeRepair()
        governor.attach(sweeper=sweeper, repair=repair)
        force(governor, Band.COMPROMISED)
        assert sweeper.interval == 15.0  # 120 * 0.125
        assert repair.interval == 50.0  # 400 * 0.125
        assert repair.priority == 1  # -1 + boost 2
        assert repair.pacing == 0.25  # 2 * 0.125
        force(governor, Band.STABLE)
        assert sweeper.interval == 120.0
        assert (repair.interval, repair.priority, repair.pacing) == (
            400.0,
            -1,
            2.0,
        )


class TestLifecycle:
    def test_poll_ledgers_transitions_with_evidence(self):
        system, _instance, client = build()
        governor = Governor(system)
        governor.track(client)
        assert governor.poll() is None  # calm: no transition, no record
        assert governor.band is Band.STABLE
        assert len(governor.ledger) == 0
        assert governor.last_evidence is not None
        assert governor.last_evidence.consistent

    def test_stop_restores_every_baseline(self):
        system, _instance, client = build()
        governor = Governor(system)
        governor.track(client)
        sweeper = RecoverySweeper(system, interval=120.0)
        scaler = FakeAutoscaler(
            AutoscaleConfig(high_water=1.0, low_water=0.1, max_clones=4)
        )
        governor.attach(autoscaler=scaler, sweeper=sweeper)
        force(governor, Band.FAILED)
        governor.stop()
        for server in app_servers(governor):
            assert server.admission.config.queue_limit == 16
            assert server.admission.paused is False
        assert client.runtime.retry_policy == RETRY
        assert scaler.config.min_clones == 0
        assert sweeper.interval == 120.0

    def test_loop_ticks_on_simulated_time(self):
        system, _instance, client = build()
        governor = enable_governor(system)
        governor.track(client)
        before = system.kernel.now
        # Run a bounded slice of simulated time; the endless loop keeps
        # the kernel busy, so advance by draining a finite co-process.
        from repro.simkernel.kernel import Timeout

        def slice_():
            yield Timeout(95.0)

        system.kernel.run_until_complete(system.kernel.spawn(slice_()))
        governor.stop()
        assert governor.last_evidence is not None
        assert governor.last_evidence.time > before
        system.kernel.run()  # loop killed: the kernel drains clean

    def test_start_is_idempotent(self):
        system, _instance, _client = build()
        governor = enable_governor(system)
        procs = governor._procs
        governor.start()
        assert governor._procs is procs and len(procs) == 1
        governor.stop()
        assert governor._procs == ()

    def test_config_replace_fills_critical_per_run(self):
        base = GovernorConfig()
        filled = replace(base, critical=frozenset({"1.2.3"}))
        assert filled.critical == frozenset({"1.2.3"})
        assert base.critical == frozenset()
