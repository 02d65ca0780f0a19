"""Test-side reads and resets of state the program keeps private.

The program has no accessor for these because nothing but a test needs
one; keeping each here means one file, not every test, knows where the
state lives.
"""

from typing import Iterator, NamedTuple, Tuple

from repro.core.relations import RelationGraph, RelationKind
from repro.scenarios import Arrival


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


class TickPlan(NamedTuple):
    """All sessions arriving during one tick of a compiled stream."""

    index: int
    t0: float
    phase: str
    arrivals: Tuple[Arrival, ...]


def ticks(plan) -> Iterator[TickPlan]:
    """A compiled stream's ticks as records, built from its columns one
    tick at a time: the record view tests check the columns against."""
    for i in range(len(plan)):
        w = plan.window(i, i + 1)
        yield TickPlan(i, w.t0[0], w.phase[0], tuple(map(w.arrival, range(len(w.offset)))))
