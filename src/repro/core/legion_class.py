"""Class objects: the class-mandatory member functions (sections 2.1, 3.7).

"Each class object exports class-mandatory member functions to create new
instances (Create()) and subclasses (Derive()), to delete instances and
subclasses (Delete()), and to find instances and subclasses (GetBinding()).
A class object is responsible for assigning LOIDs to its instances and
subclasses upon their creation."

:class:`ClassObjectImpl` implements all of that, plus:

* the **logical table** of Fig. 16 (via :mod:`repro.core.table`), kept
  current by notification methods magistrates call on lifecycle events;
* **InheritFrom()** -- the active, run-time multiple-inheritance step that
  alters the composition (interface *and* implementation chain) of future
  instances;
* the **Abstract / Private / Fixed** class types (section 2.1.2);
* **cloning** (section 5.2.2): "the cloned class is derived from the
  heavily used class without changing the interface in any way.  New
  instantiation and derivation requests are passed to the cloned object,
  making it responsible for the new objects";
* the reflective field hooks ("objects may be given the opportunity by
  their class to directly manipulate these fields", section 3.7).

Class objects are themselves ordinary active Legion objects: creation and
derivation go through a Magistrate and a Host Object exactly like any
other object (section 4.2).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import (
    BindingNotFound,
    DeliveryFailure,
    InvocationFailed,
    LegionError,
    NoCapacity,
    ObjectDeleted,
    ObjectModelError,
    RequestRefused,
    SchedulingError,
    UnknownObject,
)
from repro.core.class_types import ClassFlavor
from repro.core.method import InvocationContext
from repro.core.object_base import (
    LegionObjectImpl,
    OBJECT_MANDATORY_INTERFACE,
    legion_method,
)
from repro.core.table import LogicalTable, TableRow
from repro.idl.interface import Interface
from repro.naming.binding import Binding, NEVER_EXPIRES
from repro.naming.loid import LOID
from repro.persistence.opr import OPRecord
from repro.security.environment import CallEnvironment
from repro.simkernel.futures import SimFuture, single_flight
from repro.simkernel.kernel import Timeout

#: Factory-registry name under which the class-object implementation itself
#: is registered; Derive() creates new class objects through it.
CLASS_OBJECT_FACTORY = "legion.class-object"

#: RetireClone() drain loop: poll the clone's PendingDispatches() every
#: ``RETIRE_POLL`` simulated ms, giving up after ``RETIRE_DRAIN_BUDGET``
#: (a crashed clone must not wedge the retirement forever).
RETIRE_POLL = 2.0
RETIRE_DRAIN_BUDGET = 200.0

#: Per-attempt timeout for seeding a fresh replica (SaveState +
#: RestoreState during AddReplica): generous enough for a wide-area
#: round trip plus a loaded server's queue.
SEED_TIMEOUT = 500.0


class ClassObjectImpl(LegionObjectImpl):
    """A Legion class object.  See module docstring."""

    def __init__(
        self,
        class_name: str,
        class_id: int,
        flavor: ClassFlavor = ClassFlavor.REGULAR,
        instance_factory: str = "",
        instance_init: Optional[Dict[str, Any]] = None,
        instance_interface: Optional[Interface] = None,
        superclass: Optional[LOID] = None,
        candidate_magistrates: Optional[List[LOID]] = None,
        scheduling_agent: Optional[LOID] = None,
        binding_ttl: Optional[float] = None,
        instance_component_kind: str = "application",
        base_chain: Optional[List[Tuple[str, Dict[str, Any]]]] = None,
        bases: Optional[List[LOID]] = None,
        next_sequence: int = 1,
    ) -> None:
        self.class_name = class_name
        self.class_id = class_id
        if isinstance(flavor, int):  # OPR round-trips flags as ints
            flavor = ClassFlavor(flavor)
        self.flavor = flavor
        self.instance_factory = instance_factory
        self.instance_init = dict(instance_init or {})
        self.instance_interface = instance_interface or OBJECT_MANDATORY_INTERFACE
        self.superclass = superclass
        self.candidate_magistrates = (
            list(candidate_magistrates) if candidate_magistrates is not None else None
        )
        self.scheduling_agent = scheduling_agent
        self.binding_ttl = binding_ttl
        self.instance_component_kind = instance_component_kind
        #: Implementation chain contributed by InheritFrom() bases.
        self.base_chain: List[Tuple[str, Dict[str, Any]]] = list(base_chain or [])
        self.bases: List[LOID] = list(bases or [])
        self.table = LogicalTable()
        self._next_sequence = next_sequence
        self._magistrate_rr = 0
        #: loid identity -> in-flight AddReplica future: concurrent grows
        #: of one group coalesce (see :meth:`add_replica`).  Runtime-only
        #: state, deliberately not persistent.
        self._growing: Dict[Tuple[int, int], SimFuture] = {}
        #: Binding Agents subscribed to explicit invalidation news
        #: (section 4.1.4: "some classes may even attempt to reduce the
        #: number of stale bindings by explicitly propagating news of an
        #: object's migration or removal").
        self.invalidation_subscribers: List[Binding] = []
        #: Clones (section 5.2.2): bindings of classes now responsible for
        #: new creations; round-robin when non-empty.
        self.clones: List[Binding] = []
        self._clone_rr = 0
        #: Bumped whenever the clone pool changes membership or addresses;
        #: clients cache GetClonePool() results keyed by this epoch.
        self.clone_epoch = 0

    # ------------------------------------------------------------------ identity

    def persistent_attributes(self) -> List[str]:
        return [
            "class_name",
            "class_id",
            "instance_factory",
            "instance_init",
            "superclass",
            "candidate_magistrates",
            "scheduling_agent",
            "binding_ttl",
            "instance_component_kind",
            "base_chain",
            "bases",
            "_next_sequence",
            "table",
            "clones",
            "_clone_rr",
            "clone_epoch",
        ]

    def _allocate_instance_loid(self) -> LOID:
        """Assign a fresh instance LOID: our class_id + a sequence number."""
        sequence = self._next_sequence
        self._next_sequence += 1
        return LOID.for_instance(self.class_id, sequence, self.services.secret)

    def _binding_for(self, loid: LOID, address) -> Binding:
        expires = (
            NEVER_EXPIRES
            if self.binding_ttl is None
            else self.services.kernel.now + self.binding_ttl
        )
        return Binding(loid, address, expires)

    def _live_row(self, loid: LOID) -> TableRow:
        """The table row of an object we created and have not deleted."""
        row = self.table.find(loid)
        if row is None:
            raise UnknownObject(f"class {self.class_name} never created {loid}")
        if row.deleted:
            raise ObjectDeleted(f"{loid} was deleted")
        return row

    def _instance_opr(self, loid: LOID, init: Dict[str, Any]) -> OPRecord:
        """The OPR a magistrate instantiates ``loid`` from: our factory
        (its kwargs overlaid with ``init``) ahead of the inherited chain."""
        if not self.instance_factory:
            raise ObjectModelError(
                f"class {self.class_name} has no instance implementation registered"
            )
        return OPRecord(
            loid=loid,
            class_loid=self.loid,
            factory_chain=[
                (self.instance_factory, {**self.instance_init, **init}),
                *self.base_chain,
            ],
            component_kind=self.instance_component_kind,
        )

    # ------------------------------------------------------------ magistrate choice

    def _choose_magistrate(self, hints: Dict[str, Any], env: CallEnvironment):
        """Pick the Magistrate that will create/host a new object.

        "Selecting these two objects is a scheduling decision that is left
        up to the class, which may choose to employ the services of a
        Scheduling Agent.  Some classes may allow the creating object to
        suggest a Magistrate" (section 4.2).
        """
        hinted = hints.get("magistrate")
        if hinted is not None:
            if self.candidate_magistrates is not None and hinted not in self.candidate_magistrates:
                raise SchedulingError(
                    f"magistrate {hinted} is not a candidate for class {self.class_name}"
                )
            return hinted
        if self.scheduling_agent is not None:
            choice = yield from self.runtime.invoke(
                self.scheduling_agent,
                "ChooseMagistrate",
                self.loid,
                self.candidate_magistrates,
                env=env,
            )
            if choice is None:
                raise SchedulingError(
                    f"scheduling agent {self.scheduling_agent} found no magistrate "
                    f"for class {self.class_name}"
                )
            return choice
        if self.candidate_magistrates:
            self._magistrate_rr = (self._magistrate_rr + 1) % len(self.candidate_magistrates)
            return self.candidate_magistrates[self._magistrate_rr]
        raise SchedulingError(
            f"class {self.class_name} knows no magistrates "
            "(no hint, no scheduling agent, no candidates)"
        )

    # ------------------------------------------------------------------- Create

    @legion_method("binding Create()")
    def create_default(self, *, ctx: Optional[InvocationContext] = None):
        """Create() with no hints."""
        return self.create_with_hints({}, ctx=ctx)

    @legion_method("binding Create(hints)")
    def create_with_hints(self, hints: Dict[str, Any], *, ctx: Optional[InvocationContext] = None):
        """Create a new instance; returns its Binding.

        Recognised hints: ``magistrate`` (LOID suggestion), ``host`` (LOID
        of a Host Object in the magistrate's jurisdiction), ``init``
        (extra factory kwargs), ``no_delegate`` (bypass clone delegation,
        used internally and by tests).
        """
        self.flavor.check_create(self.class_name)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()

        if self.clones and not hints.get("no_delegate"):
            # Section 5.2.2: pass new instantiation requests to a clone.
            clone = self.clones[self._clone_rr % len(self.clones)]
            self._clone_rr = (self._clone_rr + 1) % len(self.clones)
            binding = yield from self.runtime.invoke(
                clone.loid, "Create", hints, env=env
            )
            return binding

        loid = self._allocate_instance_loid()
        opr = self._instance_opr(loid, hints.get("init", {}))
        magistrate = yield from self._choose_magistrate(hints, env)
        address = yield from self.runtime.invoke(
            magistrate, "CreateObject", opr, hints.get("host"), env=env
        )
        row = TableRow(
            loid=loid,
            object_address=address,
            current_magistrates=[magistrate],
            scheduling_agent=self.scheduling_agent,
            candidate_magistrates=(
                list(self.candidate_magistrates)
                if self.candidate_magistrates is not None
                else None
            ),
        )
        self.table.add(row)
        if self.services.relations is not None:
            self.services.relations.record_is_a(loid, self.loid)
        return self._binding_for(loid, address)

    @legion_method("binding CreateReplicated(int, string, int)")
    def create_replicated(
        self, n: int, semantic: str, k: int, *, ctx: Optional[InvocationContext] = None
    ):
        """Create one object implemented as ``n`` replica processes (4.3).

        "Replicating an object at the Legion level is a matter of creating
        an Object Address with multiple physical addresses in its list,
        assigning the address semantic appropriately, and binding the LOID
        of the object to this Object Address."  Replicas are spread
        round-robin over the candidate magistrates (and over hosts within
        each jurisdiction).  ``semantic`` is an
        :class:`~repro.net.address.AddressSemantic` value string.
        """
        from repro.net.address import AddressSemantic, ObjectAddress

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
        row = TableRow(
            loid=loid,
            object_address=combined,
            current_magistrates=magistrates_used,
            scheduling_agent=self.scheduling_agent,
            candidate_magistrates=(
                list(self.candidate_magistrates)
                if self.candidate_magistrates is not None
                else None
            ),
            replica_want=n,
        )
        self.table.add(row)
        if self.services.relations is not None:
            self.services.relations.record_is_a(loid, self.loid)
        self._replication_news("group", loid, tuple(elements), want=n)
        return self._binding_for(loid, combined)

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
        from repro.net.address import ObjectAddress

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
        network = getattr(self.services, "network", None)
        if network is not None:
            classify = network.latency.classify
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
        directory = getattr(self.services, "replication", None)
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

    # -------------------------------------------------------------------- Derive

    @legion_method("binding Derive(string)")
    def derive_named(self, name: str, *, ctx: Optional[InvocationContext] = None):
        """Derive(name) with default options."""
        return self.derive_with_options(name, {}, ctx=ctx)

    @legion_method("binding Derive(string, options)")
    def derive_with_options(
        self, name: str, options: Dict[str, Any], *, ctx: Optional[InvocationContext] = None
    ):
        """Create a subclass; returns the new class object's Binding.

        The new class inherits this class's instance interface, factory,
        implementation chain, candidate magistrates, and scheduling agent,
        each overridable through ``options`` (keys: ``instance_factory``,
        ``instance_init``, ``flavor``, ``candidate_magistrates``,
        ``scheduling_agent``, ``binding_ttl``, ``magistrate``, ``host``,
        ``instance_component_kind``).
        """
        self.flavor.check_derive(self.class_name)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()

        if self.clones and not options.get("no_delegate"):
            clone = self.clones[self._clone_rr % len(self.clones)]
            self._clone_rr = (self._clone_rr + 1) % len(self.clones)
            binding = yield from self.runtime.invoke(
                clone.loid, "Derive", name, options, env=env
            )
            return binding

        legion_class = self.services.well_known_loid("LegionClass")
        new_class_id = yield from self.runtime.invoke(
            legion_class, "AllocateClassID", self.loid, name, env=env
        )
        new_loid = LOID.for_class(new_class_id, self.services.secret)

        flavor = options.get("flavor", ClassFlavor.REGULAR)
        init = {
            "class_name": name,
            "class_id": new_class_id,
            "flavor": flavor.value if isinstance(flavor, ClassFlavor) else flavor,
            "instance_factory": options.get("instance_factory", self.instance_factory),
            "instance_init": options.get("instance_init", dict(self.instance_init)),
            "instance_interface": options.get(
                "instance_interface", self.instance_interface
            ),
            "superclass": self.loid,
            "candidate_magistrates": options.get(
                "candidate_magistrates",
                list(self.candidate_magistrates)
                if self.candidate_magistrates is not None
                else None,
            ),
            "scheduling_agent": options.get("scheduling_agent", self.scheduling_agent),
            "binding_ttl": options.get("binding_ttl", self.binding_ttl),
            "instance_component_kind": options.get(
                "instance_component_kind", self.instance_component_kind
            ),
            "base_chain": list(self.base_chain),
            "bases": list(self.bases),
        }
        opr = OPRecord(
            loid=new_loid,
            class_loid=self.loid,
            factory_chain=[(CLASS_OBJECT_FACTORY, init)],
            component_kind="class-object",
        )
        magistrate = yield from self._choose_magistrate(options, env)
        address = yield from self.runtime.invoke(
            magistrate, "CreateObject", opr, options.get("host"), env=env
        )
        row = TableRow(
            loid=new_loid,
            object_address=address,
            current_magistrates=[magistrate],
            scheduling_agent=self.scheduling_agent,
            candidate_magistrates=(
                list(self.candidate_magistrates)
                if self.candidate_magistrates is not None
                else None
            ),
            is_subclass=True,
        )
        self.table.add(row)
        if self.services.relations is not None:
            self.services.relations.record_kind_of(new_loid, self.loid)
        return self._binding_for(new_loid, address)

    # --------------------------------------------------------------- InheritFrom

    @legion_method("InheritFrom(LOID)")
    def inherit_from(self, base: LOID, *, ctx: Optional[InvocationContext] = None):
        """Add a base class: merge its instance interface and impl chain.

        "Invoking InheritFrom() on an existing class object A, and passing
        the name of an existing class object B, causes A to inherit from
        B" -- an active, run-time process affecting *future* instances.
        """
        yield from self.inherit_from_selective(base, None, ctx=ctx)

    @legion_method("InheritFrom(LOID, list)")
    def inherit_from_selective(
        self,
        base: LOID,
        only: Optional[List[str]],
        *,
        ctx: Optional[InvocationContext] = None,
    ):
        """InheritFrom with component selection.

        The paper's footnote: "Legion may allow a class to select the
        components that it wishes to inherit from its superclass."  We
        support it for InheritFrom bases: ``only`` is a list of method
        names to take from the base (None means all).  The base's
        implementation chain is still spliced in -- the parts are one
        implementation -- but the selection is enforced at dispatch by an
        exposure filter recorded in the factory chain, so unselected
        methods neither appear in the interface nor execute.
        """
        self.flavor.check_inherit_from(self.class_name)
        if not base.is_class:
            raise ObjectModelError(f"InheritFrom target {base} is not a class object")
        if base.identity == self.loid.identity:
            raise ObjectModelError(f"class {self.class_name} cannot inherit from itself")
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        base_interface = yield from self.runtime.invoke(
            base, "GetInstanceInterface", env=env
        )
        base_spec = yield from self.runtime.invoke(
            base, "GetImplementationSpec", env=env
        )
        if only is not None:
            base_interface = base_interface.restricted_to(only)
        # Record the relation first: it validates against cycles.
        if self.services.relations is not None:
            self.services.relations.record_inherits_from(self.loid, base)
        self.instance_interface = self.instance_interface.merged_with(
            base_interface, name=self.class_name
        )
        known = {entry[0] for entry in self.base_chain}
        known.add(self.instance_factory)
        for factory, init in base_spec:
            if factory not in known:
                entry_init = dict(init)
                if only is not None:
                    entry_init["__expose__"] = list(only)
                self.base_chain.append((factory, entry_init))
                known.add(factory)
        if base not in self.bases:
            self.bases.append(base)

    # ------------------------------------------------------------------- Delete

    @legion_method("Delete(LOID)")
    def delete_object(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Remove an instance or subclass from existence (section 3.8).

        Both Active and Inert copies are removed; later GetBinding()
        requests for the LOID report the deletion.
        """
        try:
            row = self._live_row(loid)
        except ObjectDeleted:
            return  # idempotent
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        for magistrate in list(row.current_magistrates):
            yield from self.runtime.invoke(magistrate, "Delete", loid, env=env)
        self.table.mark_deleted(loid)
        if self.services.relations is not None:
            self.services.relations.forget(loid)
        self._propagate("invalidate", loid)

    # ----------------------------------------------------------------- GetBinding

    @legion_method("binding GetBinding(LOID)")
    def get_binding(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Find an instance/subclass: the class's side of section 4.1.2.

        Consults the logical table; if the Object Address field is NIL the
        class asks a Current Magistrate to Activate() the object -- so
        referring to an Inert object's LOID activates it.

        Overloading note: the paper's GetBinding(LOID) and
        GetBinding(binding) share a name and arity, so this method accepts
        either; a Binding argument means "this binding is stale, give me a
        fresh one" and is routed to :meth:`get_binding_stale`.
        """
        if isinstance(loid, Binding):
            result = yield from self.get_binding_stale(loid, ctx=ctx)
            return result
        # _live_row, inline: every cold bind in the system reads through here.
        row = self.table.find(loid)
        if row is None:
            raise UnknownObject(f"class {self.class_name} never created {loid}")
        if row.deleted:
            raise ObjectDeleted(f"{loid} was deleted")
        if row.object_address is not None:
            return self._binding_for(loid, row.object_address)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        for magistrate in list(row.current_magistrates):
            try:
                address = yield from self.runtime.invoke(
                    magistrate, "Activate", loid, env=env
                )
            except (RequestRefused, DeliveryFailure, InvocationFailed):
                # Refused us, or we cannot reach it (partition, loss, the
                # magistrate's own hop failing): try the next magistrate;
                # the BindingNotFound below is retryable for the caller.
                continue
            row.object_address = address
            return self._binding_for(loid, address)
        raise BindingNotFound(
            f"class {self.class_name} cannot produce a binding for {loid}: "
            f"no Object Address and no magistrate could activate it",
            loid=loid,
        )

    @legion_method("binding GetBindingStale(binding)")
    def get_binding_stale(self, stale: Binding, *, ctx: Optional[InvocationContext] = None):
        """GetBinding(binding): the caller's binding didn't work.

        If our table still holds the same address, it is stale knowledge:
        ask a Current Magistrate to *recover* the object -- the magistrate
        probes the recorded host and, if the process is gone, reactivates
        it from its persisted OPR on a surviving host (state preserved).
        A plain Activate() would trust the magistrate's Active record and
        hand the dead address straight back.
        """
        row = self._live_row(stale.loid)
        if row.object_address == stale.address:
            if row.object_address is not None and (
                row.replicated or len(row.object_address) > 1
            ):
                # A replica group: a partial failure does not invalidate
                # the group address -- the semantic (FIRST/ANY/K-of-N)
                # handles it, and ReportDeadReplica() shrinks the group.
                # The flag matters at group size 1: magistrates refuse to
                # recover replica groups (the class owns the address), so
                # clearing the row here would lose the object forever.
                return self._binding_for(stale.loid, row.object_address)
            if not row.current_magistrates:
                # An out-of-band object (bootstrap host/magistrate/agent):
                # no magistrate could ever re-activate it, so clearing the
                # address would lose the object forever.  The caller's
                # failure may be transient (timeout, partition); keep the
                # address and let the caller's retry budget decide.
                return self._binding_for(stale.loid, row.object_address)
            env = ctx.nested_env(self.loid) if ctx else self.own_env()
            row.object_address = None
            for magistrate in list(row.current_magistrates):
                try:
                    address = yield from self.runtime.invoke(
                        magistrate, "RecoverObject", stale.loid, env=env
                    )
                except (
                    RequestRefused,
                    BindingNotFound,
                    NoCapacity,
                    ObjectModelError,
                    DeliveryFailure,
                    InvocationFailed,
                ):
                    # "Didn't produce an address" for any reason -- refusal,
                    # nothing to recover with, or the magistrate unreachable
                    # (partition/loss, possibly wrapped by its dispatcher) --
                    # means try the next one; exhaustion raises a retryable
                    # BindingNotFound, never a raw transport error.
                    continue
                row.object_address = address
                binding = self._binding_for(stale.loid, address)
                self._propagate("add-binding", binding)
                return binding
            raise BindingNotFound(
                f"class {self.class_name} could not recover {stale.loid}: "
                "no Current Magistrate produced a working address",
                loid=stale.loid,
            )
        result = yield from self.get_binding(stale.loid, ctx=ctx)
        return result

    # --------------------------------------------------------- lifecycle notifications

    @legion_method("SubscribeInvalidations(binding)")
    def subscribe_invalidations(self, agent: Binding) -> None:
        """A Binding Agent asks to be told about migrations and removals.

        Subscribed agents receive one-way EVENTs ("invalidate", loid) when
        an object's address dies and ("add-binding", binding) when a new
        address is known -- the explicit propagation of section 4.1.4.
        """
        if all(a.loid != agent.loid for a in self.invalidation_subscribers):
            self.invalidation_subscribers.append(agent)

    def _propagate(self, kind: str, payload) -> None:
        """Fan one-way news out to every subscribed agent."""
        for agent in self.invalidation_subscribers:
            self.runtime.send_event(agent.address.primary(), (kind, payload))

    @legion_method("NoteActivated(LOID, address, LOID)")
    def note_activated(self, loid: LOID, address, magistrate: LOID) -> None:
        """A magistrate reports it activated one of our objects."""
        row = self.table.find(loid)
        if row is None or row.deleted:
            return
        row.object_address = address
        if magistrate not in row.current_magistrates:
            row.current_magistrates.append(magistrate)
        if any(c.loid == loid for c in self.clones):
            # A clone came back at a (possibly new) address: refresh the
            # routing pool in place so delegation follows it.
            self.clones = [
                self._binding_for(loid, address) if c.loid == loid else c
                for c in self.clones
            ]
            self.clone_epoch += 1
        self._propagate("add-binding", self._binding_for(loid, address))

    @legion_method("NoteDeactivated(LOID, LOID)")
    def note_deactivated(self, loid: LOID, magistrate: LOID) -> None:
        """A magistrate reports it deactivated one of our objects."""
        row = self.table.find(loid)
        if row is None or row.deleted:
            return
        row.object_address = None
        if magistrate not in row.current_magistrates:
            row.current_magistrates.append(magistrate)
        self._drop_clone(loid)
        self._propagate("invalidate", loid)

    @legion_method("NoteMigrated(LOID, LOID, LOID)")
    def note_migrated(self, loid: LOID, source: LOID, target: LOID) -> None:
        """A Move() completed: responsibility changed magistrates."""
        row = self.table.find(loid)
        if row is None or row.deleted:
            return
        if source in row.current_magistrates:
            row.current_magistrates.remove(source)
        if target not in row.current_magistrates:
            row.current_magistrates.append(target)
        row.object_address = None
        self._drop_clone(loid)
        self._propagate("invalidate", loid)

    @legion_method("NoteCopied(LOID, LOID)")
    def note_copied(self, loid: LOID, target: LOID) -> None:
        """A Copy() completed: another magistrate now holds an OPR too."""
        row = self.table.find(loid)
        if row is None or row.deleted:
            return
        if target not in row.current_magistrates:
            row.current_magistrates.append(target)

    @legion_method("RegisterOutOfBand(binding)")
    def register_out_of_band(self, binding: Binding) -> None:
        """Adopt an instance started outside Legion (section 4.2.1).

        "Host Objects are started from outside Legion ... they are
        responsible for contacting LegionHost to notify it of the Host
        Object's existence and address.  Magistrates also get started
        'outside' of Legion, and they too contact their class."  The
        object enters the logical table so it is locatable like any
        normally created instance; it has no Current Magistrate (nothing
        manages its lifecycle but itself).
        """
        if binding.loid in self.table:
            self.table.set_address(binding.loid, binding.address)
            return
        # Keep our sequence counter ahead of externally assigned LOIDs so
        # later Create() calls cannot collide with bootstrap instances.
        if (
            binding.loid.class_id == self.class_id
            and binding.loid.class_specific >= self._next_sequence
        ):
            self._next_sequence = binding.loid.class_specific + 1
        self.table.add(
            TableRow(
                loid=binding.loid,
                object_address=binding.address,
                current_magistrates=[],
                scheduling_agent=self.scheduling_agent,
            )
        )
        if self.services.relations is not None:
            self.services.relations.record_is_a(binding.loid, self.loid)

    # ----------------------------------------------------------- interface queries

    @legion_method("interface GetInstanceInterface()")
    def get_instance_interface(self) -> Interface:
        """The interface future instances of this class will export.

        The union of (a) the interface contributed by this class's own
        implementation factory (its exported methods), (b) the interface
        inherited from the superclass at Derive() time, and (c) every
        base's interface added by InheritFrom().
        """
        iface = self.instance_interface
        factory = (
            self.services.impls.get(self.instance_factory)
            if self.services is not None and self.instance_factory
            else None
        )
        if factory is not None and hasattr(factory, "exported_interface"):
            iface = iface.merged_with(
                factory.exported_interface(), name=self.class_name
            )
        return iface

    @legion_method("spec GetImplementationSpec()")
    def get_implementation_spec(self) -> List[Tuple[str, Dict[str, Any]]]:
        """The factory chain an inheritor should splice in (own + bases)."""
        chain: List[Tuple[str, Dict[str, Any]]] = []
        if self.instance_factory:
            chain.append((self.instance_factory, dict(self.instance_init)))
        chain.extend(self.base_chain)
        return chain

    # --------------------------------------------------------------- reflective hooks

    @legion_method("SetSchedulingAgent(LOID, LOID)")
    def set_scheduling_agent(self, loid: LOID, agent: LOID) -> None:
        """Directly manipulate an object's Scheduling Agent field."""
        self.table.get(loid).scheduling_agent = agent

    @legion_method("SetCandidateMagistrates(LOID, list)")
    def set_candidate_magistrates(self, loid: LOID, magistrates: Optional[List[LOID]]) -> None:
        """Directly manipulate an object's Candidate Magistrate List."""
        self.table.get(loid).candidate_magistrates = (
            list(magistrates) if magistrates is not None else None
        )

    @legion_method("row GetRow(LOID)")
    def get_row(self, loid: LOID) -> TableRow:
        """Introspection: the logical-table row for one of our objects."""
        return self.table.get(loid)

    @legion_method("AddCandidateMagistrate(LOID)")
    def add_candidate_magistrate(self, magistrate: LOID) -> None:
        """Extend THIS class's candidate list (e.g. after a jurisdiction
        split creates a new magistrate, section 2.2).  A None list means
        'no restriction' and already admits the newcomer."""
        if self.candidate_magistrates is not None and magistrate not in self.candidate_magistrates:
            self.candidate_magistrates.append(magistrate)

    @legion_method("RemoveCandidateMagistrate(LOID)")
    def remove_candidate_magistrate(self, magistrate: LOID) -> None:
        """Withdraw a magistrate from THIS class's candidate list."""
        if self.candidate_magistrates is not None and magistrate in self.candidate_magistrates:
            self.candidate_magistrates.remove(magistrate)

    # --------------------------------------------------------------------- cloning

    def _normalize_clone_rr(self) -> None:
        """Keep the round-robin index inside the (possibly shrunken) pool.

        Without this, retiring clones leaves ``_clone_rr`` pointing past
        the list, and the modulo restart skews which survivor soaks up
        the next burst of requests.
        """
        size = len(self.clones)
        self._clone_rr = self._clone_rr % size if size else 0

    def _clones_changed(self) -> None:
        """The pool changed membership: bump the epoch, re-bound the index."""
        self.clone_epoch += 1
        self._normalize_clone_rr()

    def _drop_clone(self, loid: LOID) -> None:
        """Remove ``loid`` from the routing pool if it is a clone."""
        survivors = [c for c in self.clones if c.loid != loid]
        if len(survivors) != len(self.clones):
            self.clones = survivors
            self._clones_changed()

    @legion_method("binding Clone()")
    def clone_default(self, *, ctx: Optional[InvocationContext] = None):
        """Clone() with no options."""
        return self.clone_with_options({}, ctx=ctx)

    @legion_method("binding Clone(options)")
    def clone_with_options(self, options: Dict[str, Any], *, ctx: Optional[InvocationContext] = None):
        """Relieve a hot class: derive an interface-identical clone.

        The clone is registered so that subsequent Create()/Derive()
        requests are passed to it round-robin (several clones may exist,
        "with the different clones residing in different domains" --
        use the ``magistrate`` option to place them).
        """
        opts = dict(options)
        opts["no_delegate"] = True  # the clone is created by *us*, directly
        name = opts.pop("name", f"{self.class_name}.clone{len(self.clones) + 1}")
        binding = yield from self.derive_with_options(name, opts, ctx=ctx)
        self.clones.append(binding)
        self._clones_changed()
        self._propagate("add-binding", binding)
        return binding

    @legion_method("bool RetireClone(LOID)")
    def retire_clone(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Drain a clone and fold it back into an OPR (autoscale scale-down).

        The clone leaves the routing pool immediately (no new work reaches
        it through us), then we poll its PendingDispatches() until its
        in-flight work drains (bounded by ``RETIRE_DRAIN_BUDGET``), and
        finally ask a Current Magistrate to Deactivate() it -- SaveState()
        into an OPR, so a straggler reference can still resurrect it
        through the ordinary GetBinding() path.  Returns True when the
        OPR reconciliation succeeded.
        """
        if all(c.loid != loid for c in self.clones):
            raise UnknownObject(f"{loid} is not a clone of {self.class_name}")
        self._drop_clone(loid)
        self._propagate("invalidate", loid)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        deadline = self.services.kernel.now + RETIRE_DRAIN_BUDGET
        while True:
            try:
                pending = yield from self.runtime.invoke(
                    loid, "PendingDispatches", env=env
                )
            except LegionError:
                break  # crashed or unreachable: nothing left to drain
            if not pending or self.services.kernel.now >= deadline:
                break
            yield Timeout(RETIRE_POLL)
        row = self.table.find(loid)
        if row is None or row.deleted:
            return False
        for magistrate in list(row.current_magistrates):
            try:
                yield from self.runtime.invoke(magistrate, "Deactivate", loid, env=env)
                return True
            except LegionError:
                continue
        return False

    @legion_method("int CloneCount()")
    def clone_count(self) -> int:
        """How many clones currently share this class's creation load."""
        return len(self.clones)

    @legion_method("int CloneEpoch()")
    def get_clone_epoch(self) -> int:
        """Monotone counter of clone-pool changes (cheap staleness check)."""
        return self.clone_epoch

    @legion_method("list GetClones()")
    def get_clones(self) -> List[Binding]:
        """The clone bindings (for clients that spread their own requests).

        Server-side forwarding keeps naive clients correct, but the load
        only truly leaves the hot class when clients (or their binding
        agents) learn the clones and go direct -- "the different clones
        residing in different domains" (section 5.2.2).
        """
        return list(self.clones)

    @legion_method("pair GetClonePool()")
    def get_clone_pool(self) -> Tuple[int, List[Binding]]:
        """(epoch, [self + live clones]) for clone-aware client routing.

        Clients re-fetch when CloneEpoch() moves; including our own
        binding first means a client can spread Create()/method traffic
        across the whole pool without special-casing the parent.
        """
        pool = [self._binding_for(self.loid, self.server.address)]
        pool.extend(self.clones)
        return (self.clone_epoch, pool)


#: The class-mandatory interface (what every Legion class object exports).
CLASS_MANDATORY_INTERFACE = ClassObjectImpl.exported_interface("LegionClass")
