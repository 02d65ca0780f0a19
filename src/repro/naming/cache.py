"""Binding caches: the LRU+TTL store everything in Legion leans on.

"Each Legion object will maintain a cache of bindings.  Therefore, an
object's Binding Agent will only be consulted on a local cache miss, or
when a stale binding is encountered." (section 5.2.1)

The same structure backs the per-object cache in the communication layer,
the Binding Agent caches (Fig. 15), and any intermediate tier of a
combining tree.  Hit/miss/eviction counters are first-class because the
Section 5 scalability experiments are *about* these numbers.

Lookups key on ``LOID.identity`` (class_id, class_specific): the public key
is a credential, not a locator, and an object whose key you cannot verify
still has exactly one physical location.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.naming.binding import Binding
from repro.naming.loid import LOID


@dataclass
class CacheStats:
    """Counters for one cache; reset-able between experiment phases."""

    hits: int = 0
    misses: int = 0
    expired: int = 0
    evictions: int = 0
    invalidations: int = 0
    inserts: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses; expired entries count as misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit; 0.0 when no lookups happened."""
        total = self.lookups
        return self.hits / total if total else 0.0

    def reset(self) -> None:
        """Zero every counter."""
        self.hits = self.misses = self.expired = 0
        self.evictions = self.invalidations = self.inserts = 0


class BindingCache:
    """A bounded LRU cache of bindings with TTL awareness.

    Parameters
    ----------
    capacity:
        Maximum entries; the least recently used entry is evicted on
        overflow.  ``None`` means unbounded (used by class objects, whose
        "cache" is really their authoritative logical table's shadow).
    """

    def __init__(self, capacity: Optional[int] = 256) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple[int, int], Binding]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, loid: LOID, now: float) -> Optional[Binding]:
        """The cached binding for ``loid``, or None on miss/expiry.

        An expired entry is removed and counted both as ``expired`` and as
        a miss (the caller must re-resolve either way).
        """
        key = loid.identity
        binding = self._entries.get(key)
        if binding is None:
            self.stats.misses += 1
            return None
        if now >= binding.expires_at:  # expired: a miss
            del self._entries[key]
            self.stats.expired += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return binding

    def insert(self, binding: Binding) -> None:
        """Add/replace the entry for the binding's LOID (AddBinding path)."""
        key = binding.loid.identity
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = binding
        self.stats.inserts += 1
        if self.capacity is not None and len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def insert_all(self, bindings: Dict[Tuple[int, int], Binding]) -> None:
        """``insert`` each of ``bindings`` (identity → Binding) in order.

        When they fit an empty cache, that is one dict copy.
        """
        if self._entries or (
            self.capacity is not None and len(bindings) > self.capacity
        ):
            for binding in bindings.values():
                self.insert(binding)
            return
        self._entries.update(bindings)
        self.stats.inserts += len(bindings)

    def invalidate(self, loid: LOID) -> bool:
        """Drop the entry for ``loid`` if present (InvalidateBinding(LOID))."""
        removed = self._entries.pop(loid.identity, None) is not None
        if removed:
            self.stats.invalidations += 1
        return removed

    def invalidate_exact(self, binding: Binding) -> bool:
        """Drop the entry only if it matches ``binding`` exactly.

        This is the second overload of InvalidateBinding (section 3.6):
        a caller holding a stale binding must not blow away a *newer*
        binding someone else already refreshed.
        """
        key = binding.loid.identity
        current = self._entries.get(key)
        if current is not None and current == binding:
            del self._entries[key]
            self.stats.invalidations += 1
            return True
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "∞" if self.capacity is None else str(self.capacity)
        return (
            f"<BindingCache {len(self._entries)}/{cap} "
            f"hit_rate={self.stats.hit_rate:.2f}>"
        )
