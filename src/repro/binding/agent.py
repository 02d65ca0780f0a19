"""BindingAgentImpl: the LegionBindingAgent implementation (section 3.6).

"A typical Binding Agent maintains a cache of bindings, and responds to
member function calls to add, return, and invalidate bindings." (Fig. 15)

Member functions (the paper's exact set):

* ``GetBinding(LOID)`` / ``GetBinding(binding)`` -- the overloads share a
  name and arity, so one method accepts either; a Binding argument means
  "this one is stale, refresh it".
* ``InvalidateBinding(LOID)`` / ``InvalidateBinding(binding)`` -- remove a
  cached binding (by LOID, or only on exact match).
* ``AddBinding(binding)`` -- explicit propagation "for performance
  purposes".

On a cache miss the agent escalates, in the order the paper describes:
to its **parent agent** if it is part of a hierarchy ("the Binding Agent
may consult other Binding Agents, which may be organized in a hierarchy to
allow the binding process to scale"), otherwise to the **class of the
object** via the full resolver ("if all else fails, the Binding Agent can
consult the class of the object which must be able to return a binding if
one exists").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.binding.resolver import resolve_loid
from repro.core.method import InvocationContext
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.errors import BindingNotFound, DeliveryFailure
from repro.metrics.counters import Counters
from repro.naming.binding import Binding


@dataclass
class AgentStats(Counters):
    """Service-level counters (distinct from the plumbing cache stats)."""

    served: int = 0
    cache_hits: int = 0
    parent_escalations: int = 0
    class_escalations: int = 0
    refreshes: int = 0


class BindingAgentImpl(LegionObjectImpl):
    """A Binding Agent.  See module docstring."""

    def __init__(self, parent: Optional[Binding] = None) -> None:
        #: The next tier of a combining tree, or None for a root agent
        #: that escalates to class objects directly.
        self.parent = parent
        self.agent_stats = AgentStats()

    def on_activated(self) -> None:
        if self.parent is not None:
            self.runtime.seed_binding(self.parent)

    # The agent's cache *is* its runtime's cache: one binding cache per
    # Legion object, exactly as the paper draws it.  The server gives
    # binding agents a large cache via bootstrap configuration.

    def _trace_note(self, ctx: Optional[InvocationContext], **kv) -> None:
        """Annotate the enclosing dispatch span (how was this query served?)."""
        tracer = self.services.tracer
        if tracer is not None and ctx is not None:
            tracer.annotate(ctx.env.trace, **kv)

    @legion_method("binding GetBinding(query)")
    def get_binding(self, query, *, ctx: Optional[InvocationContext] = None):
        """Bind a LOID to an Object Address (or refresh a stale binding)."""
        self.agent_stats.served += 1
        stale: Optional[Binding] = None
        if isinstance(query, Binding):
            stale = query
            self.agent_stats.refreshes += 1
            loid = query.loid
            self.runtime.cache.invalidate_exact(stale)
        else:
            loid = query

        cached = self.runtime.cache.lookup(loid, self.services.kernel.now)
        if cached is not None and (stale is None or cached != stale):
            self.agent_stats.cache_hits += 1
            self._trace_note(ctx, cache="hit")
            return cached
        if cached is not None and stale is not None and cached == stale:
            self.runtime.cache.invalidate(loid)

        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        try:
            if self.parent is not None:
                self.agent_stats.parent_escalations += 1
                self._trace_note(ctx, cache="miss", escalated="parent")
                binding = yield from self.runtime.invoke(
                    self.parent.loid, "GetBinding", query, env=env
                )
                self.runtime.cache.insert(binding)
                return binding

            self.agent_stats.class_escalations += 1
            self._trace_note(ctx, cache="miss", escalated="class")
            binding = yield from resolve_loid(self.runtime, query, env)
            return binding
        except DeliveryFailure as exc:
            # The escalation path (parent agent, class, magistrate) is cut
            # off -- partitioned, lossy, or mid-crash.  That is a *naming*
            # outcome for the caller: "no binding right now", not a raw
            # transport error from some inner hop it never talked to.
            # Callers with a patient RetryPolicy re-ask after a backoff.
            raise BindingNotFound(
                f"binding walk for {loid} failed: {exc}", loid=loid
            ) from exc

    @legion_method("InvalidateBinding(query)")
    def invalidate_binding(self, query) -> None:
        """Remove a binding from the cache (both paper overloads).

        A LOID removes whatever is cached for it; a Binding removes the
        entry only on exact match (so a newer refresh survives).
        """
        if isinstance(query, Binding):
            self.runtime.cache.invalidate_exact(query)
        else:
            self.runtime.cache.invalidate(query)

    @legion_method("AddBinding(binding)")
    def add_binding(self, binding: Binding) -> None:
        """Explicitly propagate a binding into this agent's cache."""
        self.runtime.cache.insert(binding)

    def handle_event(self, payload, source) -> None:
        """Invalidation news from subscribed classes (section 4.1.4).

        One-way EVENTs: ``("invalidate", loid)`` drops the cached binding,
        ``("add-binding", binding)`` pre-loads the fresh one -- so clients
        that come asking after a migration get the new address without a
        class round-trip.
        """
        if not (isinstance(payload, tuple) and len(payload) == 2):
            return
        kind, body = payload
        if kind == "invalidate":
            self.runtime.cache.invalidate(body)
        elif kind == "add-binding" and isinstance(body, Binding):
            self.runtime.cache.insert(body)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tier = "leaf" if self.parent is not None else "root"
        return f"<BindingAgentImpl {self.loid} {tier} served={self.agent_stats.served}>"
