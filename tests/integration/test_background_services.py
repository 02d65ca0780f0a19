"""The six background services, and the one loop they all run on.

Recovery sweeps, replica repair, the clone autoscaler, the clone-pool
router, the health governor and the churn driver each run
``SimKernel.every``: ``stop()`` kills the loop even while a round is
parked in a remote call (a kill is a ``BaseException``, so no ``except
LegionError`` on the way can swallow it), and an interval retuned
mid-run takes effect from the next round.
"""

import pytest

from repro.autoscale import (
    AutoscaleConfig,
    CloneController,
    ClonePoolRouter,
    build_placement_agent,
)
from repro.faults.driver import ChaosDriver, protected_hosts
from repro.faults.log import FaultLog
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoverySweeper
from repro.health import DEFAULT_POLICIES, Band, Governor
from repro.replication import ReplicaRepairService, enable_replication
from repro.replication.store import ReplicatedStoreImpl
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import ChurnDriver


def _count_entries(targets, seen):
    """Wrap each ``(owner, method name)`` so every call is appended to ``seen``."""
    for owner, name in targets:
        method = getattr(owner, name)

        def entered(*args, _method=method, _name=name, **kwargs):
            seen.append(_name)
            return _method(*args, **kwargs)

        setattr(owner, name, entered)


def _two_sites(seed=5):
    return LegionSystem.build([SiteSpec("east", hosts=3), SiteSpec("west", hosts=3)], seed=seed)


def _geo():
    system = LegionSystem.build([SiteSpec(f"site{i}", hosts=2) for i in range(3)], seed=0)
    enable_replication(system)
    cls = system.create_class("GeoStore", factory=ReplicatedStoreImpl)
    binding = system.call(cls.loid, "CreateReplicated", 3, "first", 1)
    system.kernel.run()  # drain the placement gossip
    return system, binding


def _recovery_sweep():
    system = _two_sites()
    sweeper = RecoverySweeper(system, interval=50.0)
    return system, sweeper, [(m.impl, "sweep_hosts") for m in system.magistrates.values()]


def _recovery_sweep_notifying_the_class():
    """A sweep parked inside ``_notify_class``: the host holding two
    checkpointed counters died, and the sweep is telling the class where
    the first one came back.  That helper's ``except Exception`` used to
    swallow the kill."""
    system = _two_sites()
    site0 = system.sites[0].name
    cls = system.create_class(
        "Counter",
        factory=CounterImpl,
        magistrate=system.magistrates[site0].loid,
        host=system.host_servers[protected_hosts(system)[site0]].loid,
    )
    magistrate = system.magistrates[site0]
    victim = system.host_servers[system.site_hosts[site0][1]]
    for _ in range(2):
        binding = system.create_instance(cls.loid, magistrate=magistrate.loid, host=victim.loid)
        system.call(magistrate.loid, "Checkpoint", binding.loid)
    ChaosDriver(system, FaultPlan(), FaultLog()).crash_host(victim.impl.host_id)
    sweeper = RecoverySweeper(system, interval=50.0)
    return system, sweeper, [(magistrate.impl, "_notify_class")]


def _replica_repair():
    """Parked in the GetBinding that opens the repair of a group with a
    crashed member (an ``except LegionError`` surrounds that call)."""
    system, binding = _geo()
    element = binding.address.elements[0]
    system.host_servers[element.host].impl.crash_object(binding.loid, "test crash")
    repair = ReplicaRepairService(system, interval=50.0)
    return system, repair, [(repair, "repair_group")]


def _hot_class():
    system = LegionSystem.build([SiteSpec("east", hosts=2)], seed=3)
    return system, system.create_class("Hot", factory=CounterImpl)


def _autoscaler():
    system, hot = _hot_class()
    config = AutoscaleConfig(high_water=0.5, low_water=0.1)
    controller = CloneController(system, hot, config, build_placement_agent(system))
    return system, controller, [(controller, "_tick")]


def _clone_pool_router():
    system, hot = _hot_class()
    router = ClonePoolRouter(system.new_client("router"), hot)
    return system, router, [(router, "refresh_once")]


def _governor():
    system, _hot = _hot_class()
    governor = Governor(system)
    return system, governor, [(governor, "poll")]


def _churn(seed=5):
    system = _two_sites(seed)
    cls = system.create_class("Counter", factory=CounterImpl)
    objects = [system.create_instance(cls.loid).loid for _ in range(4)]
    churn = ChurnDriver(
        system.kernel,
        system.new_client("churn"),
        objects,
        [m.loid for m in system.magistrates.values()],
        cls.loid,
        rng=system.services.rng.stream("churn"),
        interval=20.0,
    )
    return system, churn, [(churn, "_churn")]


SERVICES = {
    "recovery-sweep": _recovery_sweep,
    "recovery-sweep-in-notify-class": _recovery_sweep_notifying_the_class,
    "replica-repair": _replica_repair,
    "autoscaler": _autoscaler,
    "clone-pool-router": _clone_pool_router,
    "governor": _governor,
    "churn": _churn,
}


@pytest.mark.parametrize("name", list(SERVICES))
def test_stop_kills_the_loop_even_mid_call(name):
    """Stop a service the moment a round has begun -- parked in its first
    remote call (the governor's round is synchronous) -- then drain: no
    round begins again, and the kernel empties instead of spinning a
    zombie loop up to the event cap."""
    system, service, targets = SERVICES[name]()
    kernel = system.kernel
    seen = []
    _count_entries(targets, seen)
    service.start()
    for _ in range(100_000):
        if seen:
            break
        kernel.step()
    assert seen, "the service never started a round"
    begun = len(seen)
    service.stop()
    kernel.run(max_events=200_000)  # raises if a zombie loop keeps going
    assert len(seen) == begun


@pytest.mark.parametrize("method", ["GetRow", "Move"])
def test_churn_stop_kills_a_round_parked_in_a_call(method):
    """Regression: ``except LegionError: continue`` used to swallow the
    kill, so the loop lived on -- and the call it was parked in later
    resumed it a second time.  Now the round dies where it stands."""
    system, churn, _targets = _churn(seed=7)
    kernel = system.kernel
    calls = []
    invoke = churn.client.runtime.invoke

    def recording(target, name, *args, **kwargs):
        calls.append(name)
        return invoke(target, name, *args, **kwargs)

    churn.client.runtime.invoke = recording
    churn.start()
    for _ in range(200_000):
        if calls and calls[-1] == method:
            break
        kernel.step()
    assert calls and calls[-1] == method, f"churn never issued {method}"
    events, issued = churn.churn_events, len(calls)
    churn.stop()
    kernel.run(max_events=200_000)
    assert (churn.churn_events, len(calls)) == (events, issued)


def _force(governor, band):
    governor.machine.band = band
    governor._apply(DEFAULT_POLICIES[band])


@pytest.mark.parametrize("kind", ["sweeper", "repair"])
def test_a_retuned_interval_takes_effect_from_the_next_round(kind):
    """The governor retunes ``interval`` while the loop runs: the wait
    already under way keeps the old one, the next wait uses the new one."""
    if kind == "sweeper":
        system = _two_sites()
        service = RecoverySweeper(system, interval=100.0)
        owner, name = system.magistrates[system.sites[0].name].impl, "sweep_hosts"
    else:
        system, _binding = _geo()
        service = ReplicaRepairService(system, interval=100.0)
        owner, name = service, "sweep_site"
    kernel = system.kernel
    rounds = []
    step = getattr(owner, name)

    def timed(*args):
        start = kernel.now
        yield from step(*args)
        if not args or args[0] == "site0":
            rounds.append((start, kernel.now))

    setattr(owner, name, timed)
    governor = Governor(system)
    governor.attach(**{kind: service})
    service.start()
    while len(rounds) < 1:
        kernel.step()
    _force(governor, Band.COMPROMISED)  # interval x 0.125, mid-wait
    assert service.interval == 12.5
    while len(rounds) < 3:
        kernel.step()
    service.stop()
    kernel.run()
    (_, end0), (start1, end1), (start2, _) = rounds
    assert start1 - end0 == pytest.approx(100.0)  # the wait under way
    assert start2 - end1 == pytest.approx(12.5)  # the next round's
