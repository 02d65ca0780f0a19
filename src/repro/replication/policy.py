"""Consistency policies over replica groups.

The Multicomputer Object Store observation (PAPERS.md): no single
coherence mechanism suits every object, so each replicated workload
picks one to match its access pattern.  The caller names the choice as
a string (a scenario's ``consistency`` key); a :class:`ReplicaSession`
turns it into wire protocol against a replica group:

* ``READ_ANY`` -- immutable objects (frozen OPRs).  Reads are plain
  ``invoke``: the locality-ordered FIRST path picks the nearest live
  replica and falls across partitions element-by-element, so a read
  *never blocks* on an unreachable copy.  Writes happen only at seed
  time (write-all, then Freeze).
* ``PRIMARY_COPY`` -- writes go to the group's first element (the
  primary), which assigns the version; the session then pushes *acked*
  ``Invalidate`` markers to every secondary in group order before the
  write returns.  Reads try the nearest copy and fall back to the
  primary whenever the copy admits staleness -- so a completed write is
  never overwritten by an old value served as fresh.

Sessions are client-side coordinator generators: they run inside any
simulation process and speak to specific elements via
``runtime.call_element`` (bypassing group semantics on purpose -- the
*session* is the semantic here).
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import DeliveryFailure, ReplicationError
from repro.security.environment import CallEnvironment


class ConsistencyPolicy(enum.Enum):
    """The consistency choices (string keys in scenario specs)."""

    PRIMARY_COPY = "primary-copy"
    READ_ANY = "read-any"


class ReplicaSession:
    """A client-side coordinator bound to one replica group.

    Parameters
    ----------
    runtime:
        The calling object's :class:`~repro.core.runtime.LegionRuntime`.
    binding:
        The replica group's Binding (a multi-element FIRST address).
    policy:
        A :class:`ConsistencyPolicy` or its string value.
    """

    def __init__(self, runtime, binding, policy) -> None:
        self.runtime = runtime
        self.binding = binding
        self.policy = ConsistencyPolicy(policy)

    # ------------------------------------------------------------- plumbing

    @property
    def elements(self) -> tuple:
        return self.binding.address.elements

    @property
    def primary(self):
        return self.binding.address.elements[0]

    def _env(self) -> CallEnvironment:
        return CallEnvironment.originating(self.runtime.loid)

    def _call(self, element, method: str, *args: Any):
        value = yield from self.runtime.call_element(
            element,
            self.binding.loid,
            method,
            args,
            self._env(),
        )
        return value

    # ------------------------------------------------------------------ API

    def read(self, key: str):
        """Policy-appropriate read of ``key``; returns the value."""
        if self.policy is ConsistencyPolicy.READ_ANY:
            # The group address IS the protocol: locality-ordered FIRST
            # picks the nearest live copy and never waits on a partition
            # longer than one bounced hop per unreachable element.
            value = yield from self.runtime.invoke(self.binding.loid, "Get", key)
            return value
        # PRIMARY_COPY: nearest copy first, primary on staleness.
        services = self.runtime.services
        ordered = self.elements
        if services.replication is not None:
            ordered = services.replication.nearest_first(
                services.network.latency, self.runtime.element.host, ordered
            )
        for element in ordered:
            if element == self.primary:
                break  # no point asking a copy ranked behind the source
            try:
                version, value, fresh = yield from self._call(
                    element, "GetVersioned", key
                )
            except DeliveryFailure:
                continue
            if fresh and version > 0:
                return value
            break  # stale copy: go straight to the primary
        version, value, _fresh = yield from self._call(
            self.primary, "GetVersioned", key
        )
        return value

    def write(self, key: str, value: Any):
        """Policy-appropriate write; returns the version written."""
        if self.policy is ConsistencyPolicy.READ_ANY:
            raise ReplicationError(
                "read-any groups are immutable after seeding; use seed()"
            )
        # PRIMARY_COPY: the primary assigns the version; acked
        # invalidations reach every secondary before the write returns,
        # in group order -- the ordering the property tests pin.
        version = yield from self._call(self.primary, "WritePrimary", key, value)
        for element in self.elements[1:]:
            yield from self._call(element, "Invalidate", key, version)
        return version

    def seed(self, items):
        """Write-all + Freeze: build an immutable read-any group.

        ``items`` is an iterable of (key, value).  Every element receives
        every pair (version 1) and is then frozen.
        """
        pairs = list(items)
        for element in self.elements:
            for key, value in pairs:
                yield from self._call(element, "PutVersioned", key, 1, value)
            yield from self._call(element, "Freeze")
