"""Test-side reads and resets of state the program keeps private.

The program has no accessor for these because nothing but a test needs
one; keeping each here means one file, not every test, knows where the
state lives.
"""

from typing import Iterator, NamedTuple, Tuple

from repro.core.relations import RelationGraph, RelationKind


def instances_of(graph, cls):
    """The is-a sources of ``cls``, read from the graph's instance map.

    Identity is tested before equality, as container membership does.
    """
    return [
        instance
        for instance, of in graph._is_a.items()
        if of is cls or of == cls
    ]


def subclasses_of(graph, cls):
    """The kind-of sources of ``cls``, read from the graph's in-edges."""
    return RelationGraph._neighbours(graph._in, cls, RelationKind.KIND_OF)


def disable_tracing(system) -> None:
    """Undo ``system.enable_tracing()``: both places that hold the recorder."""
    system.services.tracer = system.network.tracer = None


def heal_all(network) -> None:
    """Remove every partition ``network.partition`` made."""
    network._partitions.clear()


def clear_cache(cache) -> None:
    """Empty a ``BindingCache``, keeping its counters."""
    cache._entries.clear()


class Request(NamedTuple):
    """One request of a session: kind plus the think gap before it."""

    kind: str
    think: float
    denied: bool  # privileged request from an unprivileged tenant


class Arrival(NamedTuple):
    """One session arrival with its full precompiled trajectory."""

    offset: float  # ms after the tick start
    site: int  # caller's jurisdiction
    tenant: int  # index into spec.tenants
    klass: int  # target class (Zipf-ranked: 0 is hottest)
    target_site: int  # jurisdiction whose instance pool is targeted
    slot: int  # instance index within (klass, target_site)
    key: int  # data key for read/write requests
    completed: bool  # ran to max_requests (else abandoned)
    requests: Tuple[Request, ...]


class TickPlan(NamedTuple):
    """All sessions arriving during one tick of a compiled stream."""

    index: int
    t0: float
    phase: str
    arrivals: Tuple[Arrival, ...]


def _arrival(w, j: int) -> Arrival:
    """Session ``j`` of stream window ``w`` as a record."""
    lo, hi = w.first[j], w.first[j + 1]
    requests = tuple(map(Request, w.kind[lo:hi], w.think[lo:hi], w.denied[lo:hi]))
    return Arrival(
        w.offset[j], w.site[j], w.tenant[j], w.klass[j], w.target_site[j],
        w.slot[j], w.key[j], w.completed[j], requests,
    )


def ticks(plan) -> Iterator[TickPlan]:
    """A compiled stream's ticks as records, built from its columns one
    tick at a time: the record view tests check the columns against."""
    for i in range(len(plan)):
        w = plan.window(i, i + 1)
        arrivals = tuple(_arrival(w, j) for j in range(len(w.offset)))
        yield TickPlan(i, w.t0[0], w.phase[0], arrivals)
