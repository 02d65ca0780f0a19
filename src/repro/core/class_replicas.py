"""The class object's replica groups (section 4.3).

"Replicating an object at the Legion level is a matter of creating an
Object Address with multiple physical addresses in its list, assigning
the address semantic appropriately, and binding the LOID of the object to
this Object Address."  The class owns a group's address: it creates the
group, shrinks it when a member dies and regrows it seeded from a
survivor.

:class:`ReplicaGroups` is mixed into
:class:`~repro.core.legion_class.ClassObjectImpl`, whose ``__init__``
creates the per-group in-flight table ``_growing``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import (
    BindingNotFound,
    DeliveryFailure,
    InvocationFailed,
    LegionError,
    NoCapacity,
    ObjectModelError,
    RequestRefused,
)
from repro.core.method import InvocationContext
from repro.core.object_base import legion_method
from repro.naming.loid import LOID
from repro.net.address import AddressSemantic, ObjectAddress
from repro.simkernel.futures import single_flight

#: Per-attempt timeout for seeding a fresh replica (SaveState +
#: RestoreState during AddReplica): generous enough for a wide-area
#: round trip plus a loaded server's queue.
SEED_TIMEOUT = 500.0


class ReplicaGroups:
    """CreateReplicated(), ReportDeadReplica() and AddReplica()."""

    @legion_method("binding CreateReplicated(int, string, int)")
    def create_replicated(
        self, n: int, semantic: str, k: int, *, ctx: Optional[InvocationContext] = None
    ):
        """Create one object implemented as ``n`` replica processes.

        Replicas are spread round-robin over the candidate magistrates
        (and over hosts within each jurisdiction).  ``semantic`` is an
        :class:`~repro.net.address.AddressSemantic` value string.
        """
        self.flavor.check_create(self.class_name)
        if n < 1:
            raise ObjectModelError(f"replica count must be >= 1, got {n}")
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        loid = self._allocate_instance_loid()
        opr = self._instance_opr(loid, {})
        elements = []
        magistrates_used: List[LOID] = []
        for _i in range(n):
            magistrate = yield from self._choose_magistrate({}, env)
            address = yield from self.runtime.invoke(
                magistrate, "CreateReplica", opr, None, env=env
            )
            elements.append(address.primary())
            if magistrate not in magistrates_used:
                magistrates_used.append(magistrate)
        combined = ObjectAddress.replicated(
            elements, semantic=AddressSemantic(semantic), k=k
        )
        binding = self._add_row(loid, combined, magistrates_used, False, n)
        self._replication_news("group", loid, tuple(elements), want=n)
        return binding

    @legion_method("binding ReportDeadReplica(LOID, element)")
    def report_dead_replica(self, loid: LOID, element, *, ctx: Optional[InvocationContext] = None):
        """Shrink a replica group after a member failed; returns the new
        binding (or raises BindingNotFound when no replica remains)."""
        row = self._live_row(loid)
        if row.object_address is None:
            raise BindingNotFound(f"{loid} has no current address", loid=loid)
        shrunk = row.object_address.without(element)
        self._replication_news("remove", loid, (element,))
        if shrunk is None:
            row.object_address = None
            raise BindingNotFound(
                f"last replica of {loid} reported dead", loid=loid
            )
        row.object_address = shrunk
        return self._binding_for(loid, shrunk)

    @legion_method("binding AddReplica(LOID)")
    def add_replica_default(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """AddReplica with no magistrate hint."""
        binding = yield from self.add_replica(loid, None, ctx=ctx)
        return binding

    @legion_method("binding AddReplica(LOID, LOID)")
    def add_replica(
        self, loid: LOID, magistrate_hint: Optional[LOID], *,
        ctx: Optional[InvocationContext] = None,
    ):
        """Grow a replica group by one member; returns the new binding.

        The repair half of section 4.3's replication story: the class
        re-instantiates the object's implementation chain through a
        magistrate's CreateReplica and appends the fresh element to the
        group address (semantic and k preserved).  The hinted magistrate
        is tried first (the repair service points it at the jurisdiction
        that lost a replica), then candidates not yet hosting the group,
        then the rest -- so regrowth prefers spreading.  The fresh
        process is seeded from a surviving member (object-mandatory
        SaveState/RestoreState) *before* it joins the group address, so
        an unseeded replica can never serve reads -- even if the caller
        times out while the grow completes server-side.

        Growth is serialised per group and capped at the row's recorded
        target size: every jurisdiction's repair sweep may report the
        same under-replicated group concurrently, and without the cap
        each racing AddReplica would append its own fresh member.
        Concurrent calls coalesce onto one in-flight grow; a call that
        arrives when the group is already at target is a no-op returning
        the current binding.
        """
        row = self._live_row(loid)
        if row.object_address is None:
            raise BindingNotFound(
                f"{loid} has no current address to grow", loid=loid
            )
        grow = self._grow_replica(row, loid, magistrate_hint, ctx)
        binding = yield from single_flight(self._growing, loid.identity, "grow", grow)
        return binding

    def _grow_replica(
        self, row, loid: LOID, magistrate_hint: Optional[LOID], ctx
    ):
        """The uncoalesced body behind :meth:`add_replica`: grow by one,
        unless the group already is at its target size."""
        if 0 < row.replica_want <= len(row.object_address):
            return self._binding_for(loid, row.object_address)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        opr = self._instance_opr(loid, {})
        pool: List[LOID] = []
        if magistrate_hint is not None:
            pool.append(magistrate_hint)
        candidates = list(self.candidate_magistrates or [])
        pool.extend(
            m for m in candidates
            if m not in pool and m not in row.current_magistrates
        )
        pool.extend(m for m in candidates if m not in pool)
        pool.extend(m for m in row.current_magistrates if m not in pool)
        last: Optional[BaseException] = None
        for magistrate in pool:
            try:
                address = yield from self.runtime.invoke(
                    magistrate, "CreateReplica", opr, None, env=env
                )
            except (NoCapacity, RequestRefused, DeliveryFailure, InvocationFailed) as exc:
                last = exc
                continue
            element = address.primary()
            seeded = yield from self._seed_replica(row, loid, element, env)
            if not seeded:
                # The new process exists but holds no state; it must not
                # join the group.  (It stays an orphan on its host -- out
                # of the address, nothing routes to it.)  A later sweep
                # retries once a source is reachable again.
                raise NoCapacity(
                    f"class {self.class_name} started a new replica of "
                    f"{loid} but no surviving member could seed it"
                )
            grown = ObjectAddress.replicated(
                list(row.object_address.elements) + [element],
                semantic=row.object_address.semantic,
                k=row.object_address.k,
            )
            row.object_address = grown
            if magistrate not in row.current_magistrates:
                row.current_magistrates.append(magistrate)
            binding = self._binding_for(loid, grown)
            self._propagate("add-binding", binding)
            self._replication_news("add", loid, (element,))
            return binding
        raise NoCapacity(
            f"class {self.class_name} could not grow the replica group of "
            f"{loid}: no magistrate accepted a new replica"
        ) from last

    def _seed_replica(self, row, loid: LOID, element, env):
        """Object-mandatory state transfer onto a fresh group member.

        SaveState from the nearest reachable current member (same-host
        before same-site before wide-area, measured from the new
        process), RestoreState onto ``element``.  Runs before the
        element joins the group address.  Returns False when no source
        yielded its state -- every member dead, partitioned away, or
        shedding under overload.
        """
        from repro.replication.selection import LINK_RANK

        sources = list(row.object_address.elements)
        classify = self.services.network.latency.classify
        sources.sort(key=lambda s: LINK_RANK[classify(element.host, s.host)])
        for source in sources:
            try:
                blob = yield from self.runtime.call_element(
                    source, loid, "SaveState", (), env, SEED_TIMEOUT, 0
                )
            except LegionError:
                continue  # dead, shedding, or partitioned: next source
            yield from self.runtime.call_element(
                element, loid, "RestoreState", (blob,), env, SEED_TIMEOUT, 0
            )
            return True
        return False

    def _replication_news(self, kind: str, loid: LOID, elements, want: int = 0) -> None:
        """One-way placement gossip to the per-jurisdiction ReplicaCatalogs.

        Fire-and-forget EVENTs grouped by the site each element lives on,
        so keeping the catalogs (and through them the global index)
        current costs no round trips on creation, growth, or shrink
        paths.  A no-op unless ``enable_replication`` installed the
        directory -- replication-off runs send nothing.
        """
        directory = self.services.replication
        runtime = getattr(self, "runtime", None)
        if directory is None or runtime is None or not elements:
            return
        site_of = self.services.network.latency.site_of
        by_site: Dict[Optional[str], List[Any]] = {}
        for element in elements:
            by_site.setdefault(site_of(element.host), []).append(element)
        for site in sorted(by_site, key=lambda s: (s is None, s or "")):
            catalog = directory.catalog_element(site)
            if catalog is None:
                continue
            runtime.send_event(
                catalog,
                ("replica-news", kind, loid, tuple(by_site[site]), want, self.loid),
            )
