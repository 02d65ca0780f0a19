"""The warm-call budget: ROADMAP item 1's target as a noise-free ratchet.

One warm ``system.call(loid, "Ping")`` -- console runtime, cached
single-element binding, default timeout armed -- is counted under
``sys.setprofile``: every Python ``call`` and builtin ``c_call`` event,
the same events the ledger's ``total.pycalls_per_op`` counts, without
needing ``benchmarks/ledger/expected.json``.  The simulation side of the
call is pinned next to it: four kernel events (first step, request
delivery, reply delivery, resume) and two messages.

Counts are exact for a given interpreter; other versions inline or
split calls differently, so the ratchet runs on CPython 3.11 only (the
version the ledger's baseline was cut on).
"""

import sys

import pytest

from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned on CPython 3.11",
)

#: Python + builtin calls one warm call may make (ROADMAP item 1).
CALL_BUDGET = 100


def test_a_warm_call_fits_the_budget():
    system = LegionSystem.build(
        [SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)], seed=0
    )
    cls = system.create_class("Budget", factory=CounterImpl)
    loid = system.create_instance(cls.loid).loid
    assert system.call(loid, "Ping") == "pong"  # binds; the next call is warm

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
    assert counts["call"] + counts["c_call"] <= CALL_BUDGET, counts
