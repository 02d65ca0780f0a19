"""The lifecycle protocol priced edge by edge, and Create at population.

One object's life on a fixed testbed -- Create, Increment, GetRow,
Deactivate, Get (which activates it on reference), Move, Increment,
Delete -- each edge a console ``system.call`` counted the way
``test_call_budget.py`` counts a warm Ping: every Python ``call`` and
builtin ``c_call`` event.  Each edge's messages and kernel events are the
simulation's and are pinned exactly; its calls are a ceiling at the
measured count, so a call added on any edge of Fig. 11 fails here.

The cycle is measured after three warm cycles (the console's and the
agents' caches are steady by then).  Calls per edge: first when the
Create/Activate edge stopped growing with a host's population (O(1)
admission, one copy of the core seed per process start, the server's
address and label built once, a class LOID derived once), then when a
started object stopped building a binding cache it may never use and
is-a became one map entry (Delete forgets it in one step), then when a
torn-down runtime with nothing in flight stopped listing its pending
calls and Delete began folding the object's metrics entry into its
kind's retired totals (two calls cut on KillObject, three added), then
when a LOID's ``str`` stopped calling ``is_class`` and the metrics kind
of a started object became a subscript:

    edge          msgs events  calls
    Create           6     12  336 -> 306 -> 276 -> 274
    Increment        6     12  233 -> 225 -> 224   (binds the new object)
    GetRow           2      4   65
    Deactivate       6     11  232 -> 229 -> 228
    Get             13     25  616 -> 580 -> 570 -> 568   (activates on reference)
    Move            10     17  442 -> 437 -> 436
    Increment       13     25  621 -> 585 -> 575 -> 573   (activates at the new home)
    Delete           6     12  229 -> 221 -> 221
    Inert Delete     4      9  166 -> 169   (the magistrate retires the entry)

The Inert Delete is a second object's Create, Increment, GetRow and
Deactivate (uncounted) and then its Delete: with no process to kill, the
magistrate folds the metrics entry itself (three calls).

Create at population: one ``create_instance`` costs the same number of
calls at 1 and at 250 processes per host: 278 on the testbed below
(304 before the cache was built on first use), where it was 338 vs 587
while admission listed every resident process.

Counts are exact for a given interpreter, so this runs on CPython 3.11
only, like the warm-call budget.
"""

import sys

import pytest

from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

from tests.perf.test_call_budget import count_calls

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned on CPython 3.11",
)

#: edge → (messages, kernel events, call ceiling) of the measured cycle.
EDGE_BUDGET = {
    "Create": (6, 12, 274),
    "Increment": (6, 12, 224),
    "GetRow": (2, 4, 65),
    "Deactivate": (6, 11, 228),
    "Get": (13, 25, 568),
    "Move": (10, 17, 436),
    "Increment again": (13, 25, 573),
    "Delete": (6, 12, 221),
    "Inert Delete": (4, 9, 169),
}

WARM_CYCLES = 3


def lifecycle_cycle(system, cls, magistrates, edge):
    """One object's life; ``edge(name, target, method, *args)`` runs each call."""
    loid = edge("Create", cls, "Create", {}).loid
    assert edge("Increment", loid, "Increment", 7) == 7
    magistrate = edge("GetRow", cls, "GetRow", loid).current_magistrates[0]
    edge("Deactivate", magistrate, "Deactivate", loid)
    assert edge("Get", loid, "Get") == 7
    other = next(m for m in magistrates if m != magistrate)
    edge("Move", magistrate, "Move", loid, other)
    assert edge("Increment again", loid, "Increment", 1) == 8
    edge("Delete", cls, "Delete", loid)


def inert_delete(system, cls, edge):
    """A second object's life up to Inert, then its Delete."""
    loid = system.call(cls, "Create", {}).loid
    system.call(loid, "Increment", 7)
    magistrate = system.call(cls, "GetRow", loid).current_magistrates[0]
    system.call(magistrate, "Deactivate", loid)
    edge("Inert Delete", cls, "Delete", loid)


def measured_cycle():
    """edge → (messages, events, calls) of the cycle after the warm ones."""
    system = LegionSystem.build(
        [SiteSpec(f"site{i}", hosts=2) for i in range(3)], seed=0
    )
    cls = system.create_class("Churn", factory=CounterImpl).loid
    magistrates = [m.loid for m in system.magistrates.values()]

    def plain(_name, target, method, *args):
        return system.call(target, method, *args)

    for _ in range(WARM_CYCLES):
        lifecycle_cycle(system, cls, magistrates, plain)

    figures = {}

    def counted(name, target, method, *args):
        events = system.kernel.events_executed
        messages = system.network.stats.messages_sent
        result, calls = count_calls(system.call, target, method, *args)
        figures[name] = (
            system.network.stats.messages_sent - messages,
            system.kernel.events_executed - events,
            calls,
        )
        return result

    lifecycle_cycle(system, cls, magistrates, counted)
    inert_delete(system, cls, counted)
    return figures


@pytest.fixture(scope="module")
def cycle():
    return measured_cycle()


@pytest.mark.parametrize("edge", list(EDGE_BUDGET))
def test_each_lifecycle_edge_fits_its_budget(cycle, edge):
    messages, events, ceiling = EDGE_BUDGET[edge]
    assert cycle[edge][:2] == (messages, events)
    assert cycle[edge][2] <= ceiling


def calls_per_create(per_host, memory_limit=None, cpu_limit=None):
    """Fewest calls of three ``create_instance``s once every host of a
    2 x 2 testbed runs ``per_host`` processes (``max_processes`` set, and
    each host's ``SetMemoryUsage`` / ``SetCPUload`` limit when one is
    given).

    The fewest, because the kernel's deadline lane now and then re-keys a
    settled deadline (three calls) depending on simulated time alone.
    """
    system = LegionSystem.build(
        [SiteSpec(site, hosts=2, max_processes=300) for site in ("uva", "doe")],
        seed=0,
    )
    for server in system.host_servers.values():
        if memory_limit is not None:
            server.impl.set_memory_usage(memory_limit)
        if cpu_limit is not None:
            server.impl.set_cpu_load(cpu_limit)
    cls = system.create_class("Crowd", factory=CounterImpl).loid
    hosts = [server.impl.processes for server in system.host_servers.values()]
    for _ in range(per_host * len(hosts)):
        system.create_instance(cls)
    assert min(len(table) for table in hosts) >= per_host - 1
    return min(count_calls(system.create_instance, cls)[1] for _ in range(3))


def test_a_create_costs_the_same_at_any_population():
    assert calls_per_create(1) == calls_per_create(250)


def test_a_create_under_a_memory_limit_costs_the_same_at_any_population():
    # Admission reads the host's memory total, not a sum over its processes.
    assert calls_per_create(1, 10**9) == calls_per_create(250, 10**9)


def test_a_create_under_a_cpu_limit_costs_the_same_at_any_population():
    # Admission reads the host's CPU-share total, not a sum over its processes.
    assert calls_per_create(1, cpu_limit=1e9) == calls_per_create(250, cpu_limit=1e9)
