"""What one created object retains, and the sharing that keeps it small.

``create_instance`` on ``cold_bind``'s testbed (4 sites x 4 hosts) leaves
an active object behind: its server, runtime, implementation, process
entry, class-table row, magistrate record and is-a entry.  The ratchet
below prices that in bytes retained (``tracemalloc``, collector off,
after a warm-up, tracemalloc's own snapshots left out), as the call
budgets price a call.  Bytes retained per created instance, by module,
before and after the object stopped holding per-object copies of shared
or unused state:

    module                 before  after
    naming/cache.py           864      0   (cache built on first use)
    core/runtime.py           857    273   (shared core seed, slotted
                                            stats, lazy span/refresh maps)
    core/relations.py         602     46   (is-a as one entry)
    everything else          2513   2513
    total                    4837   2832

Two more ratchets price what is kept for the workload and what a
deleted object leaves.  A compiled scenario stream holds columns, not
records: 37.59 bytes per session with its requests (311.6 as named
tuples).  A Create ... Delete cycle leaves 125.48 bytes once every
bounded cache has turned over -- the metrics entry of the object's
component (807.4 while the class table kept a deleted instance's row and
metrics kept a dict of counters per component).

Byte counts are exact for a given interpreter and a fresh process, so
the ratchets run in a child interpreter on CPython 3.11 only; the
structural cases below run everywhere.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from repro.naming.cache import BindingCache
from repro.scenarios import compile_events, get_scenario
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

from tests.invariants import live_impl
from tests.perf.test_lifecycle_budget import lifecycle_cycle

#: Bytes retained per ``create_instance``: the measured figure, no slack.
BYTES_PER_CREATE = 2832.43

#: Bytes a compiled scenario stream holds per session, its requests
#: included: ``scenario_open``'s three scenarios, phases stretched x40,
#: seed 0 (54,548 sessions, 108,222 requests).  Named tuples held 311.6.
BYTES_PER_SESSION = 37.59

#: Bytes one Create ... Delete cycle leaves behind once every bounded
#: cache has turned over: today only the metrics entry of the object's
#: component.  The class-table row of a deleted object and a dict of
#: counters per component made it 807.4.
BYTES_PER_LIFECYCLE = 125.48

WARM, MEASURED = 50, 200


def retained_by(run, warm=None) -> int:
    """Bytes ``run()`` leaves allocated (collector off, tracemalloc's own
    snapshots left out).  ``warm()``, if given, runs traced before the
    first snapshot, so whatever ``run`` allocates in place of what
    ``warm`` allocated nets out."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        if warm is not None:
            warm()
            gc.collect()
        before = tracemalloc.take_snapshot()
        run()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]
    return sum(
        stat.size_diff
        for stat in after.filter_traces(own).compare_to(before.filter_traces(own), "filename")
    )


def cold_bind_testbed():
    return LegionSystem.build(
        [SiteSpec(f"site{i}", hosts=4, max_processes=2048) for i in range(4)],
        seed=0,
        agent_cache_capacity=512,
    )


def bytes_per_create() -> float:
    """Bytes one more ``create_instance`` leaves allocated, averaged."""
    system = cold_bind_testbed()
    cls = system.create_class("Retained", factory=CounterImpl)
    kept = [system.create_instance(cls.loid).loid for _ in range(WARM)]

    def create():
        for _ in range(MEASURED):
            kept.append(system.create_instance(cls.loid).loid)

    return retained_by(create) / MEASURED


def bytes_per_session() -> float:
    """Bytes the compiled streams of ``scenario_open`` hold per session."""
    specs = [
        replace(spec, phases=tuple(replace(p, duration=p.duration * 40.0) for p in spec.phases))
        for spec in map(get_scenario, ("diurnal-regional", "flash-crowd", "repository"))
    ]
    compile_events(specs[0], 0)  # first-use allocations are not the stream's
    plans = []
    held = retained_by(lambda: plans.extend(compile_events(spec, 0) for spec in specs))
    return held / sum(plan.sessions for plan in plans)


def bytes_per_lifecycle(cycles: int = 100) -> float:
    """Bytes one more Create ... Delete cycle leaves allocated, averaged.

    The cycle is ``test_lifecycle_budget.py``'s on its 3 x 2 testbed, with
    an agent cache of 8 entries.  Tracing starts before a warm-up long
    enough to turn every bounded cache over (the console's 128 entries
    are the largest), so an entry that replaces one allocated before
    tracing is not counted as kept.
    """
    system = LegionSystem.build(
        [SiteSpec(f"site{i}", hosts=2) for i in range(3)], seed=0, agent_cache_capacity=8
    )
    cls = system.create_class("Churn", factory=CounterImpl).loid
    magistrates = [m.loid for m in system.magistrates.values()]

    def edge(_name, target, method, *args):
        return system.call(target, method, *args)

    def churn(n):
        for _ in range(n):
            lifecycle_cycle(system, cls, magistrates, edge)

    churn(3)
    return retained_by(lambda: churn(cycles), warm=lambda: churn(150)) / cycles


def measured_in_a_fresh_interpreter(name: str) -> float:
    """``name()`` of this module, run in a child interpreter: inside a long
    test session the same work reads a little more, depending on what ran
    before (0.7 B per create)."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    measured = subprocess.run(
        [sys.executable, "-c", f"from tests.perf.test_memory_budget import {name}; print({name}())"],
        capture_output=True, text=True, check=True, cwd=root, env=env,
    ).stdout
    return float(measured)


pinned_on_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="byte counts are pinned on CPython 3.11",
)


@pinned_on_311
def test_bytes_retained_per_created_instance():
    assert measured_in_a_fresh_interpreter("bytes_per_create") <= BYTES_PER_CREATE


@pinned_on_311
def test_bytes_a_compiled_stream_holds_per_session():
    assert measured_in_a_fresh_interpreter("bytes_per_session") <= BYTES_PER_SESSION


@pinned_on_311
def test_bytes_a_create_delete_cycle_leaves_behind():
    assert measured_in_a_fresh_interpreter("bytes_per_lifecycle") <= BYTES_PER_LIFECYCLE


@pytest.fixture
def system():
    return LegionSystem.build([SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=1)], seed=3)


def test_an_instance_that_is_only_called_never_builds_its_cache(system):
    cls = system.create_class("Called", factory=CounterImpl)
    loid = system.create_instance(cls.loid).loid
    assert system.call(loid, "Increment", 2) == 2
    assert system.call(loid, "Ping") == "pong"
    runtime = live_impl(system, loid).runtime
    assert type(runtime.cache) is not BindingCache
    # The caller resolved the object, so its cache is a real one.
    assert type(system.console.runtime.cache) is BindingCache


def test_a_cache_built_on_first_write_forwards_it(system):
    cls = system.create_class("Written", factory=CounterImpl)
    runtime = live_impl(system, system.create_instance(cls.loid).loid).runtime
    stand_in = runtime.cache
    stand_in.capacity = 3
    assert type(runtime.cache) is BindingCache
    assert runtime.cache.capacity == 3
    # Built with the core seeds at the old capacity, as an eager seed was.
    assert len(stand_in) == len(system.services.core_seed)
    assert stand_in.stats is runtime.cache.stats
    assert stand_in.capacity == 3


def test_an_application_object_shares_the_core_seed(system):
    cls = system.create_class("Shared", factory=CounterImpl)
    first = live_impl(system, system.create_instance(cls.loid).loid)
    second = live_impl(system, system.create_instance(cls.loid).loid)
    assert first.runtime._permanent is system.services.core_seed
    assert second.runtime._permanent is system.services.core_seed


def test_is_a_is_one_entry_until_delete(system):
    relations = system.services.relations
    cls = system.create_class("Mortal", factory=CounterImpl)
    loid = system.create_instance(cls.loid).loid
    assert relations.class_of(loid) == cls.loid
    assert relations._is_a[loid] == cls.loid
    assert loid in relations
    system.call(cls.loid, "Delete", loid)
    assert relations.class_of(loid) is None
    assert loid not in relations._is_a
    assert loid not in relations
    relations.forget(loid)  # idempotent
    assert relations.class_of(cls.loid) is None
    assert cls.loid in relations
