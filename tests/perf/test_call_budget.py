"""The warm-call budget: ROADMAP item 1's target as a noise-free ratchet.

One warm ``system.call(loid, "Ping")`` -- console runtime, cached
single-element binding, default timeout armed -- is counted under
``sys.setprofile``: every Python ``call`` and builtin ``c_call`` event,
the same events the ledger's ``total.pycalls_per_op`` counts, without
needing ``benchmarks/ledger/expected.json``.  The simulation side of the
call is pinned next to it: four kernel events (first step, request
delivery, reply delivery, resume) and two messages.

Every configuration walks the same invoke and dispatch bodies, so each
has its own steady-state ceiling here, and going back to the plain
configuration costs the plain figure on the very next call.  Measured:
63 calls plain, 102 with a tracer active, 80 under
``FlowConfig(capacity=64, credit_window=8)``; each ceiling is exactly
its count.  It was 77 / 116 / 95 until envelopes were built in one call,
the wire pushed its own delivery, dispatch ran in one frame and a LOID
stored its identity.  The deadline a reply settles leaves nothing behind: after
200 warm calls the kernel heap holds at most one entry, its lane.

The open-loop row is the same count over a whole scenario driven the way
the ledger's ``scenario_open`` drives it -- ``run(until=)`` slices, one
process per session, a think ``Timeout`` per request -- which is the
half of the kernel a closed-loop Ping never enters.

Counts are exact for a given interpreter; other versions inline or
split calls differently, so the ratchet runs on CPython 3.11 only (the
version the ledger's baseline was cut on).
"""

import gc
import sys
import tracemalloc
from dataclasses import replace

import pytest

from repro.flow.config import FlowConfig
from repro.scenarios import ScenarioDriver, compile_events, deploy, get_scenario
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads import calllog
from repro.workloads.apps import CounterImpl
from tests._state import disable_tracing

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned on CPython 3.11",
)

#: Python + builtin calls one warm call may make (ROADMAP item 1).  Each
#: ceiling here is the measured count, so a single added call fails.
CALL_BUDGET = 63

#: Bytes the call log holds per open-loop request: the measured figure.
BYTES_PER_REQUEST = 21.15


def warm_testbed(flow=None):
    system = LegionSystem.build(
        [SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)], seed=0, flow=flow
    )
    cls = system.create_class("Budget", factory=CounterImpl)
    loid = system.create_instance(cls.loid).loid
    assert system.call(loid, "Ping") == "pong"  # binds; the next call is warm
    return system, loid


def count_calls(fn, *args):
    """``(fn(*args), the Python + builtin calls it made)``.

    The collector is off while counting: earlier tests' cyclic garbage
    (a parked generator closed by the collector resumes its frame) would
    otherwise be counted against ``fn`` whenever a collection fell inside.
    """
    counts = {"call": 0, "c_call": 0}

    def hook(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)  # itself one counted c_call
        gc.enable()
    return result, counts["call"] + counts["c_call"]


def calls_of_one_ping(system, loid) -> int:
    """Python + builtin calls of one warm Ping (4 events, 2 messages)."""
    events = system.kernel.events_executed
    messages = system.network.stats.messages_sent
    result, calls = count_calls(system.call, loid, "Ping")
    assert result == "pong"
    assert system.kernel.events_executed - events == 4
    assert system.network.stats.messages_sent - messages == 2
    return calls


def test_a_warm_call_fits_the_budget():
    assert calls_of_one_ping(*warm_testbed()) <= CALL_BUDGET


def test_settled_deadlines_leave_the_heap():
    system, loid = warm_testbed()
    for _ in range(200):
        system.call(loid, "Ping")
    assert len(system.kernel._queue) <= 1
    assert system.kernel.pending_events == 0


@pytest.mark.parametrize(
    "flow, traced, ceiling",
    [
        (None, False, CALL_BUDGET),
        (None, True, 102),  # + invoke / resolve / request / handle spans
        (FlowConfig(capacity=64, credit_window=8), False, 80),  # + admission, credits
    ],
    ids=["plain", "traced", "flow"],
)
def test_steady_state_calls_per_configuration(flow, traced, ceiling):
    system, loid = warm_testbed(flow)
    if traced:
        system.enable_tracing()
    first = calls_of_one_ping(system, loid)
    assert first <= ceiling
    assert calls_of_one_ping(system, loid) == first  # nothing to amortise


def test_removing_the_tracer_restores_the_plain_figure_at_once():
    system, loid = warm_testbed()
    plain = calls_of_one_ping(system, loid)
    system.enable_tracing()
    assert calls_of_one_ping(system, loid) > plain
    disable_tracing(system)
    assert calls_of_one_ping(system, loid) == plain


def test_an_open_loop_request_fits_its_budget():
    """``diurnal-regional`` at seed 0, phases stretched x4, driven in eight
    ``run(until=)`` slices and drained: 3,521 requests, all settled.

    Measured before the kernel had one loop (PR 20): 156.91 calls per
    request sliced (145.19 under a bare ``run()`` -- the slices alone cost
    11.7, ``run`` -> ``_peek`` -> ``step`` per event), 26,724 kernel
    events = 7.58989 per request.  One loop made it 131.48 sliced or not;
    request deadlines that nothing cancels made it 126.0906 (443,965
    calls); a process that is its own future, with its first step on the
    trampoline, made it 118.3212 (416,609 calls); the one-frame envelopes,
    wire and dispatch made it 102.7430 (361,758 calls); process starts
    that copy the core seed once and build their address once made it
    102.3664 (360,432 calls); sessions that read the compiled stream's
    columns and call the target directly, without a per-request
    ``_default_invoke`` generator and ``target_of``, made it 98.8362
    (348,002 calls), and that is the ceiling; the events are the
    simulation's and may not move at all.  A slotted ``CallRecord`` in
    place of a dict per request left it at 360,432; a call log written
    by subscript, without a ``list.append`` per request, reads 97.8344
    (344,475 calls).

    The same replay prices what the driver's call log holds: the bytes
    allocated in ``calllog.py`` that dropping the log frees, per
    request.  A nine-key dict per request made it 279.7 and a slotted
    ``CallRecord`` 81.2 (the record and its list slot, in ``drive.py``;
    the time floats it kept alive are the kernel's and were not
    counted).  The log's columns -- two float64 times, an outcome byte
    and an int32 issue order per stream row -- make it 21.15.
    """
    spec = get_scenario("diurnal-regional")
    spec = replace(
        spec, phases=tuple(replace(p, duration=p.duration * 4) for p in spec.phases)
    )
    deployment = deploy(spec, 0)
    kernel = deployment.system.kernel
    length = sum(p.duration for p in spec.phases)
    events = kernel.events_executed

    def drive():
        start = kernel.now
        driver.start()
        for part in range(1, 9):
            kernel.run(until=start + length * part / 8)
        kernel.run()  # every session runs to its disposition

    def held_by_the_log() -> int:
        snapshot = tracemalloc.take_snapshot()
        only = [tracemalloc.Filter(True, calllog.__file__)]
        return sum(t.size for t in snapshot.filter_traces(only).traces)

    tracemalloc.start()
    try:
        driver = ScenarioDriver(deployment, compile_events(spec, 0))
        _, calls = count_calls(drive)
        records = len(driver.records)
        stats = driver.stats  # counted from the log, so read before dropping it
        held = held_by_the_log()
        driver.log = None
        held -= held_by_the_log()
    finally:
        tracemalloc.stop()
    settled = stats.calls_succeeded + stats.calls_failed
    assert settled == stats.calls_issued == records == 3521
    assert kernel.events_executed - events == 26724
    assert calls / settled <= 98.8362
    assert held / records <= BYTES_PER_REQUEST
