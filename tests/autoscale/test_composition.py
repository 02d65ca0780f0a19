"""Magistrate recovery x autoscaler composition.

The clone pool is just more managed objects, so every recovery mechanism
from PR 3 (RecoverObject, SweepHosts, the stale-binding path) can fire
*while* the CloneController is spawning, routing at, or retiring pool
members.  These tests pin the composed behaviour:

* a clone's host crashing mid-drain must not wedge RetireClone or lose
  the in-flight requests (patient clients recover and complete);
* RecoverObject racing a retirement may resurrect the clone process, but
  the clone stays OUT of the routing pool -- retirement wins the pool;
* SweepHosts reaping a routed-at clone either heals it in place (pool
  keeps it, binding refreshed, epoch bumped) or, when recovery fails,
  drops it from the pool so traffic stops landing on a dead address.
"""

from repro.core.runtime import RetryPolicy
from repro.faults.driver import ChaosDriver, eligible_hosts
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.system.legion import LegionSystem, SiteSpec
from tests.invariants import clone_pool_violations, live_impl

PATIENT = RetryPolicy(
    max_attempts=10,
    base_backoff=20.0,
    max_backoff=200.0,
    retry_unreachable=True,
)


def _build(seed=11):
    """A 2-site testbed: hot class pinned to site 0's protected host."""
    system = LegionSystem.build(
        [SiteSpec("east", hosts=3), SiteSpec("west", hosts=3)], seed=seed
    )
    from repro.workloads.apps import CounterImpl

    site0 = system.sites[0].name
    cls = system.create_class(
        "Hot",
        factory=CounterImpl,
        magistrate=system.magistrates[site0].loid,
        host=system.host_servers[system.site_hosts[site0][0]].loid,
    )
    return system, cls


def _clone_on_crashable_host(system, cls):
    """Clone the class onto a site-0 host the chaos driver may kill."""
    site0 = system.sites[0].name
    crashable = [
        h for h in system.site_hosts[site0] if h in set(eligible_hosts(system))
    ]
    assert crashable, "no crashable host in site 0"
    host_id = crashable[0]
    clone = system.call(
        cls.loid,
        "Clone",
        {
            "magistrate": system.magistrates[site0].loid,
            "host": system.host_servers[host_id].loid,
        },
    )
    assert _find_host(system, clone.loid) == host_id
    return clone, host_id


def _find_host(system, loid):
    for host_id, server in system.host_servers.items():
        entry = server.impl.processes.find(loid)
        if entry is not None and not entry.crashed:
            return host_id
    return None


def _object_server(system, host_id, loid):
    return system.host_servers[host_id].impl.processes.find(loid).server


def _assert_pool_sound(system, cls):
    assert clone_pool_violations(live_impl(system, cls.loid)) == []


def _crash(system, host_id):
    ChaosDriver(system, FaultPlan(), FaultLog()).crash_host(host_id)


def _sweep_all(system):
    for site in sorted(system.magistrates):
        fut = system.spawn(system.magistrates[site].impl.sweep_hosts())
        system.kernel.run_until_complete(fut)


class TestCrashMidDrain:
    def test_host_crash_mid_drain_neither_wedges_nor_loses_requests(self):
        system, cls = _build()
        clone, host_id = _clone_on_crashable_host(system, cls)
        patient = system.new_client("patient")
        patient.runtime.retry_policy = PATIENT
        creates = [
            system.spawn(
                patient.runtime.invoke(clone.loid, "Create", {"no_delegate": True})
            )
            for _ in range(4)
        ]
        # Wait (simulated) until at least one Create is dispatched at the
        # clone, so the retirement genuinely has in-flight work to drain.
        clone_server = _object_server(system, host_id, clone.loid)
        deadline = system.kernel.now + 500.0
        while clone_server.in_flight == 0 and system.kernel.now < deadline:
            system.kernel.run(until=system.kernel.now + 1.0)
        assert clone_server.in_flight > 0, "no Create ever reached the clone"

        driver_client = system.new_client("driver")
        retire_fut = system.spawn(
            driver_client.runtime.invoke(cls.loid, "RetireClone", clone.loid)
        )
        system.kernel.run(until=system.kernel.now + 4.0)
        _crash(system, host_id)  # mid-drain: the poll loop is now running
        retired = system.kernel.run_until_complete(retire_fut)
        assert isinstance(retired, bool)
        # The pool dropped the clone immediately, crash or not.
        assert system.call(cls.loid, "CloneCount") == 0
        # The in-flight Creates survive: patient clients ride the
        # stale-binding path into RecoverObject and complete.
        bindings = [system.kernel.run_until_complete(f) for f in creates]
        assert all(b is not None for b in bindings)
        # The parent still serves fresh traffic (no delegation left).
        assert system.create_instance(cls.loid) is not None
        _assert_pool_sound(system, cls)


class TestRecoveryRacingRetirement:
    def test_recover_object_resurrects_but_does_not_rejoin_pool(self):
        system, cls = _build()
        clone, host_id = _clone_on_crashable_host(system, cls)
        patient = system.new_client("patient")
        patient.runtime.retry_policy = PATIENT
        system.call(clone.loid, "CloneEpoch", client=patient)  # warm the cache
        _crash(system, host_id)
        # Retirement and a patient caller race: the caller's stale binding
        # drives RecoverObject through the class while RetireClone drains.
        retire_fut = system.spawn(
            system.new_client("driver").runtime.invoke(
                cls.loid, "RetireClone", clone.loid
            )
        )
        call_fut = system.spawn(patient.runtime.invoke(clone.loid, "CloneEpoch"))
        system.kernel.run_until_complete(retire_fut)
        system.kernel.run_until_complete(call_fut)
        system.kernel.run()
        # The racing call succeeded (the clone process may well be alive
        # again), but retirement owns the pool: the clone stays out.
        assert system.call(cls.loid, "CloneCount") == 0
        # A straggler reference still resurrects it through GetBinding --
        # retirement reconciled it into an OPR, not oblivion...
        assert system.call(clone.loid, "CloneEpoch", client=patient) == 0
        # ...and even that resurrection does not re-enter the pool.
        assert system.call(cls.loid, "CloneCount") == 0
        _assert_pool_sound(system, cls)


class TestSweepReapsRoutedClone:
    def test_successful_recovery_keeps_clone_in_pool_with_fresh_binding(self):
        system, cls = _build()
        clone, host_id = _clone_on_crashable_host(system, cls)
        epoch_before = system.call(cls.loid, "CloneEpoch")
        old_pool = system.call(cls.loid, "GetClonePool")[1][1:]
        _crash(system, host_id)
        _sweep_all(system)
        # The sweep recovered the clone (class objects first) on another
        # host; the pool still routes at it, through a refreshed binding.
        assert system.call(cls.loid, "CloneCount") == 1
        assert system.call(cls.loid, "CloneEpoch") > epoch_before
        new_pool = system.call(cls.loid, "GetClonePool")[1][1:]
        assert new_pool[0].loid == clone.loid
        assert new_pool[0].address != old_pool[0].address
        new_host = _find_host(system, clone.loid)
        assert new_host is not None and new_host != host_id
        # Delegated creation flows through the recovered clone.
        assert system.create_instance(cls.loid) is not None
        _assert_pool_sound(system, cls)

    def test_failed_recovery_drops_clone_from_pool(self):
        system, cls = _build()
        clone, host_id = _clone_on_crashable_host(system, cls)
        # Refuse placements everywhere else, so the sweep's RecoverObject
        # finds no capacity and recovery fails.
        for other_id, server in system.host_servers.items():
            if other_id != host_id:
                system.call(server.loid, "SetAccepting", False)
        _crash(system, host_id)
        _sweep_all(system)
        # Recovery failed => the magistrate told the class, and the pool
        # stopped routing at the dead address.
        assert system.call(cls.loid, "CloneCount") == 0
        assert _find_host(system, clone.loid) is None
        # Capacity returns: the parent serves instantiation on its own,
        # and a straggler reference resurrects the clone from its OPR --
        # but the pool membership stays dropped.
        for other_id, server in system.host_servers.items():
            if other_id != host_id:
                system.call(server.loid, "SetAccepting", True)
        assert system.create_instance(cls.loid) is not None
        assert system.call(clone.loid, "CloneEpoch") == 0
        assert system.call(cls.loid, "CloneCount") == 0
        _assert_pool_sound(system, cls)
