"""Naming: LOIDs, bindings, binding caches, and string-name contexts.

The Legion naming system (paper sections 3.2 and 3.5) has three layers:

* :class:`LOID` -- the location-independent Legion Object Identifier:
  64-bit class identifier, 64-bit class-specific field, and a P-bit public
  key (Fig. 12).  LegionClass hands out class identifiers; classes fill in
  the class-specific field (typically a sequence number) for instances.
* :class:`Binding` -- the first-class (LOID, Object Address, expiry)
  triple that can be passed around and cached anywhere in the system.
* :class:`BindingCache` -- the LRU+TTL cache every object, Binding Agent,
  and class keeps; its hit/miss counters feed the Section 5 experiments.
* :class:`Context` -- the compile-time map from program-level string names
  to LOIDs (section 4.1: "the compiler uses the context to map string
  names to LOIDs").
"""

from repro.naming.loid import LOID, PUBLIC_KEY_BITS
from repro.naming.binding import Binding, NEVER_EXPIRES
from repro.naming.cache import BindingCache, CacheStats
from repro.naming.context import Context
from repro.naming.context_object import ContextObjectImpl

__all__ = [
    "LOID",
    "PUBLIC_KEY_BITS",
    "Binding",
    "NEVER_EXPIRES",
    "BindingCache",
    "CacheStats",
    "Context",
    "ContextObjectImpl",
]
