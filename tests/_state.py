"""Test-side reads and resets of state the program keeps private.

The program has no accessor for these because nothing but a test needs
one; keeping each here means one file, not every test, knows where the
state lives.
"""

from repro.core.relations import RelationGraph, RelationKind


def instances_of(graph, cls):
    """The is-a sources of ``cls``, read from the graph's in-edges."""
    return RelationGraph._neighbours(graph._in, cls, RelationKind.IS_A)


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
