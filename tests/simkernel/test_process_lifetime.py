"""Process lifetime: a finished process frees itself.

A :class:`~repro.simkernel.kernel.Process` used to be a reference cycle
(its two cached callbacks are bound methods of itself), so every request
left five objects only the cyclic collector could free.  These tests run
with the collector *off*: what they count is what refcounting alone
reclaims.  They count objects and events, not calls, so they hold on
every interpreter.
"""

import gc
import weakref

import pytest

from repro.errors import FutureError, ProcessKilled, SimulationError
from repro.simkernel.futures import SimFuture
from repro.simkernel.kernel import Process, SimKernel, Timeout
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl, SerialServiceImpl


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_the_call_path_leaves_no_cyclic_garbage(no_collector):
    """500 plain calls and 500 calls of a generator-method export (its own
    process per request): nothing for the collector.  Five objects per
    process before -- Process, generator, frame, two bound methods."""
    system = LegionSystem.build(
        [SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)], seed=0
    )
    counter = system.create_instance(
        system.create_class("Counter", factory=CounterImpl).loid
    ).loid
    service = system.create_instance(
        system.create_class("Serial", factory=SerialServiceImpl).loid
    ).loid
    assert system.call(counter, "Ping") == "pong"  # bind both: the rest is warm
    system.call(service, "Work")
    gc.collect()

    for _ in range(500):
        system.call(counter, "Ping")
        system.call(service, "Work")
    assert gc.collect() == 0


def test_a_finished_process_dies_with_its_last_reference(no_collector):
    """The process is its own future, so a waiter holding the result holds
    the process -- but not its generator: that and its frame go the
    moment it returns.  The process goes with its last reference, and
    neither leaves the collector anything.  Process is a ``__slots__``
    class without a weakref slot, so it is looked for among the tracked
    objects and watched through the result it holds."""

    class Result:
        pass

    def live_processes(others=0):
        return sum(type(obj) is Process for obj in gc.get_objects()) - others

    others = live_processes()  # parked in other tests' module-scoped systems
    kernel = SimKernel()
    gate = SimFuture("gate")

    def child():
        yield Timeout(1.0)
        return "child"

    def parent():
        assert (yield child()) == "child"
        yield gate
        return Result()

    proc = kernel.spawn(parent())
    kernel.post(5.0, gate.set_result, None)
    generator = weakref.ref(proc.gen)
    assert live_processes(others) == 1
    kernel.run(until=2.0)
    assert live_processes(others) == 1  # the child is gone, the parent is parked
    assert generator() is not None
    kernel.run()
    assert generator() is None and proc.gen is None  # freed at finish, proc still held
    assert live_processes(others) == 1
    result = weakref.ref(proc.result())
    del proc
    assert live_processes(others) == 0 and result() is None
    assert gc.collect() == 0


def test_only_its_own_generator_settles_a_process(kernel):
    def mine():
        yield Timeout(1.0)
        return "mine"

    proc = kernel.spawn(mine())
    with pytest.raises(FutureError, match="settled by its generator only"):
        proc.set_result("yours")
    with pytest.raises(FutureError, match="settled by its generator only"):
        proc.set_exception(ValueError("yours"))
    assert kernel.run_until_complete(proc) == "mine"
    with pytest.raises(FutureError):
        proc.set_result("too late")
    assert proc.result() == "mine"


def test_a_late_resume_of_a_killed_process_counts_one_event_and_runs_nothing(kernel):
    """Killed while parked on a future that resolves afterwards: the resume
    is queued and counted like any other (``events_executed`` is inside
    every rich digest), and finds nothing to run."""
    ran = []
    futures = [SimFuture("late-result"), SimFuture("late-failure")]

    def parked(fut):
        yield fut
        ran.append("resumed")

    procs = [kernel.spawn(parked(fut)) for fut in futures]
    kernel.run()
    for proc in procs:
        proc.kill()
    kernel.run()
    assert [proc.gen for proc in procs] == [None, None]
    assert all(isinstance(proc.exception(), ProcessKilled) for proc in procs)

    events = kernel.events_executed
    futures[0].set_result("too late")
    assert kernel.pending_events == 1
    kernel.run()
    assert kernel.events_executed == events + 1
    futures[1].set_exception(ValueError("too late"))
    kernel.run()
    assert kernel.events_executed == events + 2
    assert ran == []


def test_timeout_still_checks_its_delay_and_still_subclasses(kernel):
    with pytest.raises(SimulationError, match="negative timeout -1"):
        Timeout(-1)

    class Nap(Timeout):
        pass

    def napper():
        yield Nap(3.0)
        yield Timeout(0)
        return kernel.now

    assert kernel.run_until_complete(kernel.spawn(napper())) == 3.0
