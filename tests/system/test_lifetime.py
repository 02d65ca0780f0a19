"""Object and system lifetime: reference counting frees what is dropped.

A retired process (Deactivate, Move, Delete) and a dropped system go the
moment their last reference does; nothing waits for the cyclic
collector.  These tests run with the collector *off* and require that a
collection then finds nothing: what they check is what refcounting alone
reclaims.  Before, every retired process left about eleven objects in
cycles (its server, runtime, endpoint, bound handler, implementation and
the cache stand-in), a stale-binding recovery left a ``DeliveryFailure``
with its traceback and frame, and a dropped system was one large cycle
through its kernel queue and network registry.  They count objects, not
bytes or calls, so they hold on every interpreter.
"""

import gc
import weakref

import numpy as np
import pytest

from repro.flow.config import FlowConfig
from repro.megascale import BulkEngine, LiveEscalationBoundary, StateFrame
from repro.megascale.scenario import MegaScenario, build_live_system
from repro.scenarios import ScenarioDriver, compile_events, deploy, get_scenario
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

from tests.perf.test_lifecycle_budget import inert_delete, lifecycle_cycle


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def churn_testbed():
    system = LegionSystem.build([SiteSpec(f"site{i}", hosts=2) for i in range(3)], seed=0)
    cls = system.create_class("Churn", factory=CounterImpl).loid
    return system, cls, [m.loid for m in system.magistrates.values()]


def plain(system):
    def edge(_name, target, method, *args):
        return system.call(target, method, *args)

    return edge


def test_lifecycle_cycles_leave_nothing_for_the_collector(no_collector):
    """Every edge of Fig. 11 -- Create, Deactivate, activation on
    reference, Move, Delete of an Active and of an Inert object."""
    system, cls, magistrates = churn_testbed()
    edge = plain(system)
    lifecycle_cycle(system, cls, magistrates, edge)  # first uses and bindings
    inert_delete(system, cls, edge)
    gc.collect()
    for _ in range(10):
        lifecycle_cycle(system, cls, magistrates, edge)
        inert_delete(system, cls, edge)
    assert gc.collect() == 0


def test_a_stale_binding_recovery_leaves_nothing_for_the_collector(no_collector):
    """Deactivate, then Get: the console's call fails on the dead address
    (a caught DeliveryFailure), refreshes and retries."""
    system, cls, _magistrates = churn_testbed()
    loid = system.create_instance(cls).loid
    assert system.call(loid, "Increment", 3) == 3
    magistrate = system.call(cls, "GetRow", loid).current_magistrates[0]
    stale = system.console.runtime.stats.stale_detected
    gc.collect()
    system.call(magistrate, "Deactivate", loid)
    assert system.call(loid, "Get") == 3
    assert system.console.runtime.stats.stale_detected == stale + 1
    assert gc.collect() == 0


def test_under_flow_control_a_failed_call_pins_no_frame(no_collector):
    """Under a FlowConfig every call goes through ``call_element``; a
    failed future there no longer pins its exception's frame.  The
    collector may still find a retired process held by its
    ``AdmissionController``'s pointer back to its server (a named
    residual), but no exception, traceback or frame."""
    system = LegionSystem.build(
        [SiteSpec(f"site{i}", hosts=2) for i in range(3)], seed=0,
        flow=FlowConfig(capacity=64, credit_window=8),
    )
    cls = system.create_class("Churn", factory=CounterImpl).loid
    magistrates = [m.loid for m in system.magistrates.values()]
    edge = plain(system)
    lifecycle_cycle(system, cls, magistrates, edge)
    gc.collect()
    for _ in range(3):
        lifecycle_cycle(system, cls, magistrates, edge)
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        kinds = {type(o).__name__ for o in gc.garbage}
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert not kinds & {"frame", "traceback", "DeliveryFailure"}


def dropped(make):
    """``gc.collect()`` after the system ``make()`` returns is dropped, and
    whether its kernel and network outlived the drop."""
    system, keep = make()
    kernel, network = weakref.ref(system.kernel), weakref.ref(system.network)
    del system, keep
    alive = kernel() is not None or network() is not None
    return gc.collect(), alive


def built_after_calls():
    system = LegionSystem.build([SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)], seed=0)
    cls = system.create_class("Counter", factory=CounterImpl).loid
    for _ in range(4):
        loid = system.create_instance(cls).loid
        system.call(loid, "Increment", 1)
    clients = [system.new_client(f"c{i}", site="doe") for i in range(2)]
    system.call(loid, "Ping", client=clients[0])
    return system, clients


def catalog_replay():
    spec = get_scenario("flash-crowd")
    deployment = deploy(spec, 0)
    driver = ScenarioDriver(deployment, compile_events(spec, 0))
    deployment.system.kernel.run_until_complete(driver.start())
    assert driver.stats.calls_succeeded > 0
    return deployment.system, (deployment, driver)


def mega_live():
    spec = MegaScenario(population=40, hot=4)
    system, classes, client = build_live_system(spec, 0)
    ids = np.arange(spec.population, dtype=np.int64)
    frame = StateFrame(n_classes=spec.n_classes, n_hosts=spec.bulk_hosts)
    frame.extend(
        spec.population,
        klass=(ids % spec.n_classes).astype(np.int32),
        host=(ids % spec.bulk_hosts).astype(np.int32),
    )
    boundary = LiveEscalationBoundary(system, classes, client)
    engine = BulkEngine(frame, hot_ids=spec.hot_ids(), per_tick_limit=2, boundary=boundary)
    boundary.engine = engine
    engine.tick(0, ids[:20].tolist())
    system.kernel.run()  # the escalated calls land
    assert boundary.twins
    return system, (frame, boundary, engine)


@pytest.mark.parametrize("make", [built_after_calls, catalog_replay, mega_live])
def test_a_dropped_system_is_freed_by_reference_count(no_collector, make):
    assert dropped(make) == (0, False)
