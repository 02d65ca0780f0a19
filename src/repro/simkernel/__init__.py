"""Discrete-event simulation kernel.

This is the substrate underneath the whole reproduction.  The paper's Legion
is a wide-area distributed system of address-space-disjoint objects that
communicate by non-blocking method invocation; we model every active object
as a simulation entity and every method call as a timestamped message, so
the quantities Section 5 of the paper reasons about -- hop counts, cache
behaviour, per-component request load -- are directly measurable and
deterministic under a seed.

The kernel is deliberately SimPy-flavoured (generator-based processes that
``yield`` futures and timeouts) but written from scratch: no third-party
simulation dependency is used.

Public API
----------
:class:`SimKernel`
    The event loop: simulated clock, scheduling, process spawning.
:class:`SimFuture`
    A single-assignment result container usable from processes.
:class:`Timeout`
    Yieldable marker that suspends a process for simulated time.
:func:`gather`
    Future combinator.
:class:`RngStreams`
    Named, independently seeded random streams for reproducible runs.
"""

from repro.simkernel.futures import SimFuture, gather
from repro.simkernel.kernel import SimKernel, Timeout, Process
from repro.simkernel.rng import RngStreams

__all__ = [
    "SimKernel",
    "SimFuture",
    "Timeout",
    "Process",
    "gather",
    "RngStreams",
]
