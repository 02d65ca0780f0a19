"""The full binding-resolution procedure (paper sections 4.1.2-4.1.3).

Given a LOID, produce a Binding, using only the mechanisms the paper
defines:

1. **Find the responsible class.**  For a non-class object this is LOID
   field surgery -- "the LOID of the responsible class can be determined
   by setting the Class Identifier field to match that of N, and by
   setting the Class Specific field to zero."  For a class object,
   LegionClass's responsibility pairs answer: "the existence of pair
   <X,Y> indicates that X is responsible for locating Y."
2. **Find the responsible class's own binding** -- recursively, by the
   same procedure; the recursion terminates at LegionClass, whose binding
   every object knows (it is seeded at activation, the simulated analogue
   of a well-known address), or at a class LegionClass is directly
   responsible for ("LegionClass simply hands out the appropriate
   binding").
3. **Ask the responsible class** -- GetBinding(LOID) on the class, which
   consults its logical table and may Activate() an Inert object.

Every binding discovered along the way is cached in the caller's runtime
cache, which is precisely the paper's scalability lever: "extensive
caching of both bindings and 'responsibility pairs' ensures that the vast
majority of accesses occurs locally."

These generators run inside any object's simulation process; Binding
Agents use them, but so can tests driving the procedure directly.
"""

from __future__ import annotations

import functools
from typing import Optional

from repro.errors import BindingNotFound
from repro.core.runtime import LegionRuntime
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.security.environment import CallEnvironment


@functools.lru_cache(maxsize=1024)
def class_loid_for(class_id: int, secret: int) -> LOID:
    """``LOID.for_class(class_id, secret)``, derived once.

    The class's public key is a SHA-256 of its identity and the secret;
    a system has few classes, so every later escalation to one reuses
    the first derivation.  A LOID is immutable, so one instance serves
    every caller; the bound keeps a long-lived process from growing it.
    """
    return LOID.for_class(class_id, secret)


def locate_class_binding(runtime: LegionRuntime, class_loid: LOID, env: CallEnvironment):
    """Find the binding of a *class* object (section 4.1.3).

    Recursive walk up the responsibility chain, terminating at
    LegionClass.  Every step's result lands in ``runtime.cache``.
    """
    services = runtime.services
    legion_class = services.well_known_loid("LegionClass")

    cached = runtime.lookup_binding(class_loid)
    if cached is not None:
        return cached

    tracer = services.tracer
    if tracer is not None:
        # One zero-duration span per rung of the responsibility chain;
        # the trace shows exactly how deep 4.1.3's recursion went.
        tracer.instant(
            "responsibility walk",
            "resolve",
            parent=env.trace,
            target=str(class_loid),
        )

    if class_loid.identity == legion_class.identity:
        # LegionClass's own binding is seeded at activation; if it is
        # somehow missing, nothing below can work either.
        raise BindingNotFound(
            "LegionClass binding missing from cache (bootstrap incomplete?)",
            loid=class_loid,
        )

    responsible: LOID = yield from runtime.invoke(
        legion_class, "LocateResponsible", class_loid, env=env
    )
    if responsible.identity == legion_class.identity:
        binding: Binding = yield from runtime.invoke(
            legion_class, "GetCoreBinding", class_loid, env=env
        )
    else:
        # Make sure we can reach the responsible class, then ask it.
        yield from locate_class_binding(runtime, responsible, env)
        binding = yield from runtime.invoke(
            responsible, "GetBinding", class_loid, env=env
        )
    runtime.cache.insert(binding)
    return binding


def resolve_loid(runtime: LegionRuntime, query, env: CallEnvironment):
    """Resolve a LOID (or refresh a stale Binding) via the class mechanism.

    ``query`` is a LOID, or a Binding the caller found to be stale --
    the GetBinding(binding) overload of section 3.6.  Returns a Binding.
    """
    services = runtime.services
    stale: Optional[Binding] = None
    if isinstance(query, Binding):
        stale = query
        loid = query.loid
        # Drop any identical cached copy: the caller just proved it dead.
        runtime.cache.invalidate_exact(stale)
    else:
        loid = query

    cached = runtime.lookup_binding(loid)
    if cached is not None and (stale is None or cached != stale):
        return cached

    if loid.is_class:
        if stale is not None:
            # Our cached copy may be the same stale one; force a re-ask of
            # the responsible class rather than re-serving the cache.
            runtime.cache.invalidate(loid)
        binding = yield from locate_class_binding(runtime, loid, env)
        if stale is not None and binding == stale:
            # The responsible class still believes the stale address;
            # tell it explicitly by passing the stale binding through.
            legion_class = services.well_known_loid("LegionClass")
            responsible = yield from runtime.invoke(
                legion_class, "LocateResponsible", loid, env=env
            )
            binding = yield from runtime.invoke(
                responsible, "GetBinding", stale, env=env
            )
            runtime.cache.insert(binding)
        return binding

    # Non-class object: field surgery gives the responsible class.
    class_id, _zero = loid.class_identity()
    responsible = class_loid_for(class_id, services.secret)
    tracer = services.tracer
    if tracer is not None:
        tracer.annotate(env.trace, responsible=str(responsible))
    yield from locate_class_binding(runtime, responsible, env)
    ask = stale if stale is not None else loid
    binding = yield from runtime.invoke(responsible, "GetBinding", ask, env=env)
    runtime.cache.insert(binding)
    return binding
