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

Byte counts are exact for a given interpreter and a fresh process, so
the ratchet runs in a child interpreter on CPython 3.11 only; the
structural cases below run everywhere.
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from repro.naming.cache import BindingCache
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

from tests.invariants import live_impl

#: Bytes retained per ``create_instance``: the measured figure, no slack.
BYTES_PER_CREATE = 2832.43

WARM, MEASURED = 50, 200


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
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(MEASURED):
            kept.append(system.create_instance(cls.loid).loid)
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    # tracemalloc's own snapshot objects are not the program's.
    own = [tracemalloc.Filter(False, tracemalloc.__file__)]
    retained = sum(
        stat.size_diff
        for stat in after.filter_traces(own).compare_to(before.filter_traces(own), "filename")
    )
    return retained / MEASURED


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="byte counts are pinned on CPython 3.11",
)
def test_bytes_retained_per_created_instance():
    # In a fresh interpreter: inside a long test session the same creates
    # read a little more (0.7 B each), depending on what ran before.
    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    measured = subprocess.run(
        [sys.executable, "-c", "from tests.perf.test_memory_budget import "
         "bytes_per_create; print(bytes_per_create())"],
        capture_output=True, text=True, check=True, cwd=root, env=env,
    ).stdout
    assert float(measured) <= BYTES_PER_CREATE


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
