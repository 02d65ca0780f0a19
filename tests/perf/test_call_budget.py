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
configuration costs the plain figure on the very next call.

Counts are exact for a given interpreter; other versions inline or
split calls differently, so the ratchet runs on CPython 3.11 only (the
version the ledger's baseline was cut on).
"""

import sys

import pytest

from repro.flow.config import FlowConfig
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned on CPython 3.11",
)

#: Python + builtin calls one warm call may make (ROADMAP item 1; 87
#: measured -- the slack catches a step change, not a single call).
CALL_BUDGET = 90


def warm_testbed(flow=None):
    system = LegionSystem.build(
        [SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)], seed=0, flow=flow
    )
    cls = system.create_class("Budget", factory=CounterImpl)
    loid = system.create_instance(cls.loid).loid
    assert system.call(loid, "Ping") == "pong"  # binds; the next call is warm
    return system, loid


def calls_of_one_ping(system, loid) -> int:
    """Python + builtin calls of one warm Ping (4 events, 2 messages)."""
    counts = {"call": 0, "c_call": 0}

    def hook(_frame, event, _arg):
        if event in counts:
            counts[event] += 1

    events = system.kernel.events_executed
    messages = system.network.stats.messages_sent
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = system.call(loid, "Ping")
    finally:
        sys.setprofile(previous)  # itself one counted c_call

    assert result == "pong"
    assert system.kernel.events_executed - events == 4
    assert system.network.stats.messages_sent - messages == 2
    return counts["call"] + counts["c_call"]


def test_a_warm_call_fits_the_budget():
    assert calls_of_one_ping(*warm_testbed()) <= CALL_BUDGET


@pytest.mark.parametrize(
    "flow, traced, ceiling",
    [
        (None, False, CALL_BUDGET),
        (None, True, 127),  # + invoke / resolve / request / handle spans
        (FlowConfig(capacity=64, credit_window=8), False, 111),  # + admission, credits
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
    system.disable_tracing()
    assert calls_of_one_ping(system, loid) == plain
