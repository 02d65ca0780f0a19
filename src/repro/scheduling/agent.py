"""Scheduling Agent implementations (the hooks of sections 3.7-3.8).

A Scheduling Agent answers ``ChooseMagistrate(class, candidates)``:
given the class asking and its Candidate Magistrate List (None meaning
"no restriction", in which case the agent falls back to the magistrates
it knows about), return the magistrate that should receive the next
Create()/Derive().  Policies differ in how they pick.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import LegionError, SchedulingError
from repro.core.method import InvocationContext
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.naming.loid import LOID


class SchedulingAgentImpl(LegionObjectImpl):
    """Base Scheduling Agent: knows a pool of magistrates, picks per policy."""

    def __init__(self, magistrates: Optional[List[LOID]] = None) -> None:
        #: The magistrates this agent may place objects on when the asking
        #: class has no candidate restriction.
        self.magistrates: List[LOID] = list(magistrates or [])

    def _pool(self, candidates: Optional[List[LOID]]) -> List[LOID]:
        pool = candidates if candidates is not None else self.magistrates
        if not pool:
            raise SchedulingError("scheduling agent has no magistrates to choose from")
        return pool

    @legion_method("LOID ChooseMagistrate(LOID, list)")
    def choose_magistrate(
        self,
        asking_class: LOID,
        candidates: Optional[List[LOID]],
        *,
        ctx: Optional[InvocationContext] = None,
    ):
        """Pick the magistrate for the asking class's next creation."""
        raise SchedulingError(
            f"{type(self).__name__} does not implement a choice policy"
        )


class LeastLoadedSchedulingAgent(SchedulingAgentImpl):
    """Query each candidate's ManagedCount() and pick the smallest.

    The expensive-but-balanced policy: exercises the paper's intent that
    scheduling logic lives in agents and drives magistrates through their
    exported primitives.
    """

    def choose_magistrate(self, asking_class, candidates, *, ctx=None):
        pool = self._pool(candidates)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        best: Optional[LOID] = None
        best_count = None
        for magistrate in pool:
            count = yield from self.runtime.invoke(
                magistrate, "ManagedCount", env=env
            )
            if best_count is None or count < best_count:
                best_count = count
                best = magistrate
        return best


class LeastLoadedPlacementAgent(LeastLoadedSchedulingAgent):
    """Placement down to the host level, for autoscaler clone spawns.

    ``ChoosePlacement`` composes the magistrate choice with a probe of
    each of that magistrate's hosts: pick the accepting host with the
    most free process slots (ties broken by enumeration order, which is
    deterministic).  Returns ``(magistrate, host_or_None)``; ``None``
    means "let the magistrate place it" (every probe failed).
    """

    @legion_method("pair ChoosePlacement(LOID, list)")
    def choose_placement(
        self,
        asking_class: LOID,
        candidates: Optional[List[LOID]],
        *,
        ctx: Optional[InvocationContext] = None,
    ):
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        magistrate = yield from self.choose_magistrate(asking_class, candidates, ctx=ctx)
        hosts = yield from self.runtime.invoke(magistrate, "GetHosts", env=env)
        best_host: Optional[LOID] = None
        best_free = None
        for host in hosts:
            try:
                state = yield from self.runtime.invoke(host, "GetState", env=env)
            except LegionError:
                continue  # dead or unreachable host: not a placement target
            if not state.accepting:
                continue
            if best_free is None or state.free_slots > best_free:
                best_free = state.free_slots
                best_host = host
        return (magistrate, best_host)
