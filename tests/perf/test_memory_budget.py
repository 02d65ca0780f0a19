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

(one window of 200 creates, without a traced warm-up).  A single window
reads whichever table resizes it crosses -- 2,631 to 2,847 bytes after
0 to 300 warm-up creates -- so the ratchet fits a line instead: bytes
retained against creates, at populations of 256, 512 and 1,024 objects.
Each population doubles the last, so every table that grows with the
population has resized the same share of times at each point, and the
slope reads the same (within a byte) wherever tracing starts; see
``BYTES_PER_CREATE``.  The slope read 2,787.79 while a class-table row
copied its class's candidate-magistrate list, and reads 2,699.93 with
the list shared (a 4-entry list is 88 bytes).

Two more ratchets price what is kept for the workload and what a
deleted object leaves.  A compiled scenario stream holds columns, not
records: 37.59 bytes per session with its requests (311.6 as named
tuples).  A Create ... Delete cycle leaves at most 1.36 bytes once every
bounded cache has turned over (807.4 while the class table kept a
deleted instance's row and metrics kept a dict of counters per
component; 125.48 while metrics kept the deleted object's entry).  It
is read in two consecutive windows after 400 warm cycles, which must
agree: one window after 153 cycles read 1.88, the phase of the small-int
cache and the console cache's turnover along with what is kept.  The
testbed is traced from its build: traced only from the warm-up, a
float block made before tracing and recycled through the float free
list reads as a new allocation when a later collection releases it.

Byte counts are exact for a given interpreter and a fresh process, so
the ratchets run in a child interpreter on CPython 3.11 only; the
structural cases below run everywhere.
"""

import ast
import gc
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

from repro.metrics.counters import ComponentKind
from repro.naming.cache import BindingCache
from repro.scenarios import compile_events, get_scenario
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

from tests.invariants import live_impl
from tests.perf.test_lifecycle_budget import lifecycle_cycle

#: Bytes retained per ``create_instance``: the slope of the line fitted
#: by :func:`create_fit`, measured, no slack.  Tracing starts at 50 to 90
#: objects (five runs), so the console's 128-entry binding cache has
#: turned over before the first point; the five slopes lie within a byte.
BYTES_PER_CREATE = 2699.94

#: The fit's intercept in bytes: what creating nothing would retain, the
#: traced first-use allocations and the tables' resize phase at 50
#: objects.  Measured at the first run (tracing from 50 objects): 10,905
#: with the copied candidate lists, 10,861 with them shared.
CREATE_INTERCEPT = 10861

#: The populations the fit reads, each double the last.
POPULATIONS = (256, 512, 1024)

#: Objects created untraced before each of the five fits.
UNTRACED = (50, 60, 70, 80, 90)

#: Bytes a compiled scenario stream holds per session, its requests
#: included: ``scenario_open``'s three scenarios, phases stretched x40,
#: seed 0 (54,548 sessions, 108,222 requests).  Named tuples held 311.6.
BYTES_PER_SESSION = 37.59

#: Bytes one Create ... Delete cycle leaves behind once every bounded
#: cache has turned over, the larger of two consecutive 100-cycle windows
#: after :data:`WARM_CYCLES` (they read 1.36 and 0.08).  The class-table
#: row of a deleted object and a dict of counters per component made it
#: 807.4; the metrics entry of the deleted object's component, 125.48,
#: until Delete folded it into its kind's retired totals.  One window
#: after 153 cycles read 1.88: it sat in front of the small-int boundary
#: and the console cache's turnover, and read the phase along with what
#: is kept.  Traced from the warm-up only, float blocks recycled from
#: before tracing moved the reading (3.48, then 4.44 with nothing more
#: kept), so the testbed is traced from its build.
BYTES_PER_LIFECYCLE = 1.36

#: Cycles run traced before the first window: past three turnovers of
#: the console's 128-entry cache (384) and the small-int boundary (256).
WARM_CYCLES = 400

#: How far the two windows may read apart, bytes per cycle: a quarter of
#: one 8-byte pointer slot, so a phase effect (a table resize in one
#: window) fails it while the in-flight processes and messages at either
#: window's edge (a 160-byte frame or two) do not.
LIFECYCLE_WINDOW_SPREAD = 2.0

def retained_by(*runs, warm=None) -> List[int]:
    """Bytes each of ``runs`` leaves allocated, run one after another
    (collector off; tracemalloc's own snapshots, and this module's list
    of them, left out).  ``warm()``, if given, runs traced before the
    first snapshot, so whatever ``run`` allocates in place of what
    ``warm`` allocated nets out."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        if warm is not None:
            warm()
            gc.collect()
        snapshots = [tracemalloc.take_snapshot()]
        for run in runs:
            run()
            gc.collect()
            snapshots.append(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
        gc.enable()
    own = [tracemalloc.Filter(False, tracemalloc.__file__), tracemalloc.Filter(False, __file__)]
    snapshots = [snapshot.filter_traces(own) for snapshot in snapshots]
    return [
        sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        for before, after in zip(snapshots, snapshots[1:])
    ]


def cold_bind_testbed():
    return LegionSystem.build(
        [SiteSpec(f"site{i}", hosts=4, max_processes=2048) for i in range(4)],
        seed=0,
        agent_cache_capacity=512,
    )


def create_fit(untraced: int) -> Tuple[float, float]:
    """``(slope, intercept)`` of the bytes ``create_instance`` leaves
    allocated against the number of creates since tracing started, fitted
    at :data:`POPULATIONS` on a fresh testbed that holds ``untraced``
    objects when tracing starts (collector off, tracemalloc's own
    snapshots left out)."""
    system = cold_bind_testbed()
    cls = system.create_class("Retained", factory=CounterImpl)
    kept = [system.create_instance(cls.loid).loid for _ in range(untraced)]
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]
    retained = []
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces(own)
        for population in POPULATIONS:
            while len(kept) < population:
                kept.append(system.create_instance(cls.loid).loid)
            gc.collect()
            after = tracemalloc.take_snapshot().filter_traces(own)
            retained.append(sum(stat.size_diff for stat in after.compare_to(before, "filename")))
    finally:
        tracemalloc.stop()
        gc.enable()
    slope, intercept = np.polyfit([p - untraced for p in POPULATIONS], retained, 1)
    return float(slope), float(intercept)


def create_fits() -> List[Tuple[float, float]]:
    """:func:`create_fit` at each of :data:`UNTRACED`, in one interpreter."""
    return [create_fit(untraced) for untraced in UNTRACED]


def bytes_per_session() -> float:
    """Bytes the compiled streams of ``scenario_open`` hold per session."""
    specs = [
        replace(spec, phases=tuple(replace(p, duration=p.duration * 40.0) for p in spec.phases))
        for spec in map(get_scenario, ("diurnal-regional", "flash-crowd", "repository"))
    ]
    compile_events(specs[0], 0)  # first-use allocations are not the stream's
    plans = []
    (held,) = retained_by(lambda: plans.extend(compile_events(spec, 0) for spec in specs))
    return held / sum(plan.sessions for plan in plans)


def bytes_per_lifecycle(cycles: int = 100) -> List[float]:
    """Bytes one more Create ... Delete cycle leaves allocated, averaged
    over each of two consecutive windows of ``cycles`` cycles.

    The cycle is ``test_lifecycle_budget.py``'s on its 3 x 2 testbed, with
    an agent cache of 8 entries.  Tracing starts before the testbed is
    built, so no block the testbed made untraced can come back through a
    free list and read as kept when it is released.  The warm-up
    (:data:`WARM_CYCLES`) runs past every phase boundary a cycle's own
    allocations cross: the console's 128-entry cache has turned over
    three times and the counters have left the small-int cache (256).
    """
    testbed = {}

    def edge(_name, target, method, *args):
        return testbed["system"].call(target, method, *args)

    def churn(n):
        for _ in range(n):
            lifecycle_cycle(testbed["system"], testbed["cls"], testbed["magistrates"], edge)

    def build_and_warm():
        system = testbed["system"] = LegionSystem.build(
            [SiteSpec(f"site{i}", hosts=2) for i in range(3)], seed=0, agent_cache_capacity=8
        )
        testbed["cls"] = system.create_class("Churn", factory=CounterImpl).loid
        testbed["magistrates"] = [m.loid for m in system.magistrates.values()]
        churn(WARM_CYCLES)

    def window():
        churn(cycles)

    return [kept / cycles for kept in retained_by(window, window, warm=build_and_warm)]


def measured_in_a_fresh_interpreter(name: str):
    """``name()`` of this module, run in a child interpreter: inside a long
    test session the same work reads a little more, depending on what ran
    before (0.7 B per create)."""
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    measured = subprocess.run(
        [sys.executable, "-c", f"from tests.perf.test_memory_budget import {name}; print({name}())"],
        capture_output=True, text=True, check=True, cwd=root, env=env,
    ).stdout
    return ast.literal_eval(measured.strip())


pinned_on_311 = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="byte counts are pinned on CPython 3.11",
)


@pinned_on_311
def test_bytes_retained_per_created_instance():
    fits = measured_in_a_fresh_interpreter("create_fits")
    slope, intercept = fits[0]  # the first, in a fresh interpreter
    assert slope <= BYTES_PER_CREATE
    assert intercept <= CREATE_INTERCEPT
    slopes = [slope for slope, _ in fits]
    assert max(slopes) - min(slopes) < 10  # wherever tracing starts


@pinned_on_311
def test_bytes_a_compiled_stream_holds_per_session():
    assert measured_in_a_fresh_interpreter("bytes_per_session") <= BYTES_PER_SESSION


@pinned_on_311
def test_bytes_a_create_delete_cycle_leaves_behind():
    first, second = measured_in_a_fresh_interpreter("bytes_per_lifecycle")
    assert max(first, second) <= BYTES_PER_LIFECYCLE
    assert abs(first - second) <= LIFECYCLE_WINDOW_SPREAD  # retention, not phase


@pytest.fixture
def system():
    return LegionSystem.build([SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=1)], seed=3)


def test_an_instance_that_is_only_called_never_builds_its_cache(system):
    cls = system.create_class("Called", factory=CounterImpl)
    loid = system.create_instance(cls.loid).loid
    assert system.call(loid, "Increment", 2) == 2
    assert system.call(loid, "Ping") == "pong"
    runtime = live_impl(system, loid).runtime
    # Read without building: a built cache is an instance attribute.
    assert "cache" not in vars(runtime)
    # The caller resolved the object, so its cache is a real one.
    assert type(vars(system.console.runtime)["cache"]) is BindingCache


def test_a_cache_built_on_first_write_forwards_it(system):
    cls = system.create_class("Written", factory=CounterImpl)
    runtime = live_impl(system, system.create_instance(cls.loid).loid).runtime
    assert "cache" not in vars(runtime)
    runtime.cache.capacity = 3
    cache = vars(runtime)["cache"]
    assert type(cache) is BindingCache
    assert runtime.cache is cache
    assert cache.capacity == 3
    # Built with the core seeds at the old capacity, as an eager seed was.
    assert len(cache) == len(system.services.core_seed)
    assert cache.stats.inserts == len(system.services.core_seed)


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


def test_delete_retires_the_metrics_entry(system):
    metrics = system.services.metrics
    cls = system.create_class("Retired", factory=CounterImpl)
    loid = system.create_instance(cls.loid).loid
    component = next(
        entry.server.component
        for host in system.host_servers.values()
        if (entry := host.impl.processes.find(loid)) is not None
    )
    assert system.call(loid, "Increment", 2) == 2
    assert metrics.get(component) == 1
    served = metrics.totals_by_kind()[ComponentKind.APPLICATION]
    system.call(cls.loid, "Delete", loid)
    assert component.name not in metrics.loads(ComponentKind.APPLICATION)
    assert component not in metrics._requests
    assert metrics.totals_by_kind()[ComponentKind.APPLICATION] == served
