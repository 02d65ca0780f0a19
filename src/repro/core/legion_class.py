"""Class objects: the class-mandatory member functions (sections 2.1, 3.7).

"Each class object exports class-mandatory member functions to create new
instances (Create()) and subclasses (Derive()), to delete instances and
subclasses (Delete()), and to find instances and subclasses (GetBinding()).
A class object is responsible for assigning LOIDs to its instances and
subclasses upon their creation."

:class:`ClassObjectImpl` implements Create, Delete and GetBinding over
the **logical table** of Fig. 16 (:mod:`repro.core.table`), kept current
by notification methods magistrates call on lifecycle events, plus the
**Abstract / Private / Fixed** class types (section 2.1.2) and the
reflective field hooks ("objects may be given the opportunity by their
class to directly manipulate these fields", section 3.7).  Its
collaborators each have a module of their own, mixed into the one class:

* :mod:`repro.core.class_derivation` -- Derive() and InheritFrom();
* :mod:`repro.core.class_clones` -- the clone pool (section 5.2.2);
* :mod:`repro.core.class_replicas` -- replica groups (section 4.3).

A class object is still one object with one saved state: ``__init__``
and :meth:`ClassObjectImpl.persistent_attributes` cover every
collaborator's fields.  Class objects are themselves ordinary active
Legion objects: creation and derivation go through a Magistrate and a
Host Object exactly like any other object (section 4.2).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import (
    BindingNotFound,
    DeliveryFailure,
    InvalidArgument,
    InvocationFailed,
    LegionError,
    NoCapacity,
    ObjectDeleted,
    ObjectModelError,
    RequestRefused,
    SchedulingError,
    UnknownObject,
)
from repro.core.class_clones import ClonePool
from repro.core.class_derivation import Derivation
from repro.core.class_replicas import ReplicaGroups
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
from repro.simkernel.futures import SimFuture

#: The keys ``Create(hints)`` recognises; any other key is refused.
CREATE_HINTS = ("magistrate", "host", "init", "no_delegate")


class ClassObjectImpl(ClonePool, ReplicaGroups, Derivation, LegionObjectImpl):
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
        #: ``(list, frozenset of it)``: membership of a hinted magistrate
        #: in ``candidate_magistrates`` is a hash probe, not a scan.  The
        #: list is only ever replaced (rows share it), never mutated, so
        #: the set is rebuilt when the list object changes.
        self._candidate_set: Tuple[Optional[List[LOID]], FrozenSet[LOID]] = (None, frozenset())
        #: loid identity -> in-flight AddReplica future: concurrent grows
        #: of one group coalesce (see :meth:`add_replica`).  Runtime-only
        #: state, deliberately not persistent.
        self._growing: Dict[Tuple[int, int], SimFuture] = {}
        #: Binding Agents subscribed to explicit invalidation news
        #: (section 4.1.4: "some classes may even attempt to reduce the
        #: number of stale bindings by explicitly propagating news of an
        #: object's migration or removal").
        self.invalidation_subscribers: List[Binding] = []
        #: The clone pool (:mod:`repro.core.class_clones`): bindings of
        #: classes now responsible for new creations; round-robin when
        #: non-empty.
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
            "instance_interface",
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

    def _missing(self, loid: LOID) -> LegionError:
        """The error for a LOID with no row: an instance whose sequence
        number we issued was deleted (its row went at Delete()); any
        other LOID was never ours."""
        if loid.class_id == self.class_id and 0 < loid.class_specific < self._next_sequence:
            return ObjectDeleted(f"{loid} was deleted")
        return UnknownObject(f"class {self.class_name} never created {loid}")

    def _live_row(self, loid: LOID) -> TableRow:
        """The table row of an object we created and have not deleted."""
        row = self.table.find(loid)
        if row is None:
            raise self._missing(loid)
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
            candidates = self.candidate_magistrates
            if candidates is not None:
                if self._candidate_set[0] is not candidates:
                    self._candidate_set = (candidates, frozenset(candidates))
                if hinted not in self._candidate_set[1]:
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
        used internally and by tests).  Any other key is refused with
        InvalidArgument.
        """
        for key in hints:
            if key not in CREATE_HINTS:
                raise InvalidArgument(
                    f"Create hint {key!r} is not one of {', '.join(CREATE_HINTS)}"
                )
        self.flavor.check_create(self.class_name)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()

        if self.clones and not hints.get("no_delegate"):
            binding = yield from self._delegate("Create", (hints,), env)
            return binding

        loid = self._allocate_instance_loid()
        opr = self._instance_opr(loid, hints.get("init", {}))
        magistrate = yield from self._choose_magistrate(hints, env)
        address = yield from self.runtime.invoke(
            magistrate, "CreateObject", opr, hints.get("host"), env=env
        )
        return self._add_row(loid, address, [magistrate], False, 0)

    def _add_row(
        self, loid: LOID, address, magistrates: List[LOID], is_subclass: bool,
        replica_want: int,
    ) -> Binding:
        """The birth of an instance, replica group or subclass: its table
        row and its is-a / kind-of relation.  Returns its binding."""
        self.table.add(
            TableRow(
                loid=loid,
                object_address=address,
                current_magistrates=magistrates,
                scheduling_agent=self.scheduling_agent,
                # Shared, not copied: the class replaces its list on change.
                candidate_magistrates=self.candidate_magistrates,
                is_subclass=is_subclass,
                replica_want=replica_want,
            )
        )
        if is_subclass:
            self.services.relations.record_kind_of(loid, self.loid)
        else:
            self.services.relations.record_is_a(loid, self.loid)
        return self._binding_for(loid, address)

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
        self.table.delete(loid)
        if self.clones:
            self._drop_clone(loid)
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
            raise self._missing(loid)
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

    def get_binding_stale(self, stale: Binding, *, ctx: Optional[InvocationContext] = None):
        """GetBinding(binding), reached through :meth:`get_binding`: the
        caller's binding didn't work.

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
        if self.clones:
            self._readdress_clone(loid, address)
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
        if self.clones:
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
        if self.clones:
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
            self.table.get(binding.loid).object_address = binding.address
            return
        # Keep our sequence counter ahead of externally assigned LOIDs so
        # later Create() calls cannot collide with bootstrap instances.
        if (
            binding.loid.class_id == self.class_id
            and binding.loid.class_specific >= self._next_sequence
        ):
            self._next_sequence = binding.loid.class_specific + 1
        self._add_row(binding.loid, binding.address, [], False, 0)

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
        'no restriction' and already admits the newcomer.  The list is
        replaced, not extended: every row created so far shares the list
        its class had then."""
        if self.candidate_magistrates is not None and magistrate not in self.candidate_magistrates:
            self.candidate_magistrates = self.candidate_magistrates + [magistrate]


#: The class-mandatory interface (what every Legion class object exports).
CLASS_MANDATORY_INTERFACE = ClassObjectImpl.exported_interface("LegionClass")
