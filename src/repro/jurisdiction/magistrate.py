"""MagistrateImpl: the object in charge of a Jurisdiction (section 3.8).

"The purpose of a Magistrate is to perform the activation, deactivation,
and migration of the Legion objects under its control. ...  Magistrates
are not intended to be complex decision making entities.  Instead, they
should act as mechanisms by which other Legion objects implement policies
and algorithms.  As a likely security boundary for the objects it manages,
a Magistrate has the authority to reject requests."

Exported member functions (the paper's list, plus the cooperation methods
the creation and migration protocols need):

* ``Activate(LOID)`` / ``Activate(LOID, LOID)`` -- activate, optionally on
  a suggested Host Object; returns the Object Address.
* ``Deactivate(LOID)`` -- save state into an OPR in the vault.
* ``Delete(LOID)`` -- remove Active and Inert copies from existence.
* ``Copy(LOID, LOID)`` / ``Move(LOID, LOID)`` -- inter-jurisdiction
  migration; Move is "equivalent to Copy() then Delete()".
* ``CreateObject(opr, host_hint)`` -- the class-object cooperation path of
  section 4.2 ("the actual creation of the object is carried out by the
  Magistrate and Host Object").
* ``ImportObject(bytes)`` / ``ExportObject(LOID)`` -- the receiving/sending
  halves of migration.
* ``ReportExceptions(host, list)`` -- Host Objects report reaped crashes.

Every method is guarded by the magistrate's MayI policy (site autonomy:
"an organization may choose to implement its own Magistrate"), and the
admission hook :meth:`admit_opr` lets subclasses refuse objects whose
implementations they do not trust -- the DOE scenario of Fig. 9.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import (
    BindingNotFound,
    DeliveryFailure,
    InvocationTimeout,
    LegionError,
    LifecycleError,
    NoCapacity,
    PartitionedError,
    ProcessKilled,
    RequestRefused,
    UnknownObject,
)
from repro.core.method import InvocationContext
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.jurisdiction.jurisdiction import Jurisdiction
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress
from repro.persistence.opr import OPRecord
from repro.simkernel.futures import SimFuture, single_flight


class ObjectState(enum.Enum):
    """The two object states of section 3.1."""

    ACTIVE = "active"
    INERT = "inert"


@dataclass
class ManagedObject:
    """The magistrate's record of one object under its control."""

    loid: LOID
    class_loid: LOID
    state: ObjectState
    #: Host Object the process runs on (Active only).
    host: Optional[LOID] = None
    #: Current Object Address (Active only).
    address: Optional[ObjectAddress] = None
    #: The OPR template (identity + factory chain, no state); combined with
    #: freshly saved state on each deactivation.
    template: Optional[OPRecord] = None
    #: For system-level replicated objects (section 4.3): the (host LOID,
    #: Object Address) of each replica process this magistrate runs.
    replicas: List[Tuple[LOID, ObjectAddress]] = field(default_factory=list)
    #: True when the object went Inert through failure (demotion), not a
    #: clean Deactivate; the next successful activation is a *recovery*
    #: and is reported to ``services.fault_log`` as such.
    lost: bool = False


class MagistrateImpl(LegionObjectImpl):
    """The base Magistrate.  Site-specific subclasses override policy."""

    def __init__(self, jurisdiction: Jurisdiction) -> None:
        self.jurisdiction = jurisdiction
        self.managed: Dict[Tuple[int, int], ManagedObject] = {}
        #: Bindings of the jurisdiction's Host Objects, in adoption order.
        self.hosts: List[Binding] = []
        self._host_rr = 0
        #: (host LOID, object LOID, reason) triples from ReportExceptions.
        self.exception_log: List[Tuple[LOID, LOID, str]] = []
        #: Standing placement suggestions from Scheduling Agents: object
        #: identity → suggested Host Object, consumed at next activation.
        self.placement_suggestions: Dict[Tuple[int, int], LOID] = {}
        #: Host identities believed crashed (probe failed hard).  Placement
        #: skips them; re-adopting the host via AddHost clears the mark.
        self.suspect_hosts: set = set()
        #: object identity → in-flight recovery future, so concurrent
        #: RecoverObject calls for one lost object coalesce onto a single
        #: probe + reactivation instead of double-activating.
        self._recovering: Dict[Tuple[int, int], SimFuture] = {}

    # --------------------------------------------------------------------- hosts

    @legion_method("AddHost(binding)")
    def add_host(self, host: Binding) -> None:
        """Adopt a Host Object into this jurisdiction."""
        if all(h.loid != host.loid for h in self.hosts):
            self.hosts.append(host)
        self.suspect_hosts.discard(host.loid.identity)
        self.runtime.seed_binding(host)

    @legion_method("RemoveHost(LOID)")
    def remove_host(self, host: LOID) -> None:
        """Withdraw a Host Object (its running objects keep running)."""
        self.hosts = [h for h in self.hosts if h.loid != host]

    # ----------------------------------------------------------- scheduling hooks

    @legion_method("list GetHosts()")
    def get_hosts(self) -> List[LOID]:
        """The jurisdiction's Host Objects (for Scheduling Agents).

        Part of the "primitive scheduling functions exported by the
        Magistrates" (section 3.8) that agents build policies on.
        """
        return [h.loid for h in self.hosts]

    @legion_method("SuggestPlacement(LOID, LOID)")
    def suggest_placement(self, loid: LOID, host: LOID) -> None:
        """A Scheduling Agent pre-pins the host for an object's NEXT
        activation (the hook of sections 3.7-3.8: agents "suggest how to
        schedule the objects in the Jurisdiction").  Consumed once."""
        if all(h.loid != host for h in self.hosts):
            raise RequestRefused(
                f"host {host} is not in jurisdiction {self.jurisdiction.name}"
            )
        self.placement_suggestions[loid.identity] = host

    def _choose_host(self, hint: Optional[LOID], loid: Optional[LOID] = None) -> LOID:
        """Pick the Host Object for an activation: the hint (or a standing
        suggestion for ``loid``), else round-robin over unsuspected hosts."""
        if hint is None and loid is not None:
            hint = self.placement_suggestions.pop(loid.identity, None)
        if hint is not None:
            if all(h.loid != hint for h in self.hosts):
                raise RequestRefused(
                    f"host {hint} is not in jurisdiction {self.jurisdiction.name}"
                )
            if hint.identity in self.suspect_hosts:
                raise RequestRefused(f"host {hint} is suspected failed")
            return hint
        if not self.hosts:
            raise NoCapacity(f"jurisdiction {self.jurisdiction.name} has no hosts")
        suspects = self.suspect_hosts
        n = len(self.hosts)
        for _ in range(n):
            self._host_rr = (self._host_rr + 1) % n
            candidate = self.hosts[self._host_rr].loid
            if not suspects or candidate.identity not in suspects:
                return candidate
        raise NoCapacity(
            f"every host in jurisdiction {self.jurisdiction.name} is suspected failed"
        )

    def _probe_host(self, host_loid: LOID, method: str, args: tuple, env):
        """One direct call, classified as liveness evidence.

        Returns ``("alive", value)``, ``("dead", None)``, or
        ``("unknown", None)``.  A single un-retried ``call_address`` keeps
        the evidence unambiguous: only a hard bounce (no endpoint
        registered at the host's address -- the Host Object is down) counts
        as dead.  Timeouts and partitions are *not* proof: on a lossy or
        split network a live host looks exactly the same, and declaring it
        dead would leak capacity (or split-brain a recovery), so those
        return "unknown" and the caller re-probes on a later sweep.
        """
        try:
            binding = yield from self.runtime.resolve(host_loid, trace=env.trace)
        except ProcessKilled:
            raise  # the probing process is being torn down, not evidence
        except LegionError:
            return ("unknown", None)  # control-path trouble, not host evidence
        try:
            value = yield from self.runtime.call_address(
                binding.address, host_loid, method, args, env
            )
            return ("alive", value)
        except (PartitionedError, InvocationTimeout):
            return ("unknown", None)
        except DeliveryFailure:
            self.runtime.cache.invalidate_exact(binding)
            return ("dead", None)
        except ProcessKilled:
            raise
        except LegionError:
            return ("unknown", None)

    # ------------------------------------------------------------------ admission

    def admit_opr(self, opr: OPRecord) -> bool:
        """Site-specific admission hook over the object's implementation.

        Subclasses implement trust decisions here (e.g. a DOE magistrate
        admitting only certified factory names).
        """
        return True

    def _checked(self, opr: OPRecord) -> OPRecord:
        if not self.admit_opr(opr):
            raise RequestRefused(
                f"magistrate of {self.jurisdiction.name} refuses {opr.loid} "
                f"(implementation {opr.factory_chain[0][0]!r})"
            )
        return opr

    # ------------------------------------------------------------------- creation

    @legion_method("address CreateObject(opr, LOID)")
    def create_object(
        self, opr: OPRecord, host_hint: Optional[LOID], *, ctx: Optional[InvocationContext] = None
    ):
        """Create a brand-new object from its class's OPR (section 4.2).

        Runs with "the cooperation of the Magistrate ... and of the Host
        Object": the magistrate records management responsibility, the
        host actually starts the process.
        """
        self._checked(opr)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        host = self._choose_host(host_hint, opr.loid)
        address = yield from self.runtime.invoke(host, "Activate", opr, env=env)
        self.managed[opr.loid.identity] = ManagedObject(
            loid=opr.loid,
            class_loid=opr.class_loid,
            state=ObjectState.ACTIVE,
            host=host,
            address=address,
            template=opr.with_state(None),
        )
        return address

    @legion_method("address CreateReplica(opr, LOID)")
    def create_replica(
        self, opr: OPRecord, host_hint: Optional[LOID], *, ctx: Optional[InvocationContext] = None
    ):
        """Start one replica process of a system-level replicated object.

        Unlike CreateObject, several replicas of the *same LOID* may run
        under one magistrate (on distinct hosts); the managed record
        accumulates them.  Section 4.3: "a Legion object -- an entity
        named by a single LOID -- can be implemented as a set of
        processes".
        """
        self._checked(opr)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        used = {host for host, _addr in self._replicas_of(opr.loid)}
        host = None
        if host_hint is not None:
            host = self._choose_host(host_hint)
        else:
            for candidate in self.hosts:
                if candidate.loid not in used:
                    host = candidate.loid
                    break
            if host is None:
                raise NoCapacity(
                    f"jurisdiction {self.jurisdiction.name}: every host already "
                    f"runs a replica of {opr.loid}"
                )
        address = yield from self.runtime.invoke(host, "Activate", opr, env=env)
        record = self.managed.get(opr.loid.identity)
        if record is None:
            record = ManagedObject(
                loid=opr.loid,
                class_loid=opr.class_loid,
                state=ObjectState.ACTIVE,
                template=opr.with_state(None),
            )
            self.managed[opr.loid.identity] = record
        record.replicas.append((host, address))
        return address

    def _replicas_of(self, loid: LOID) -> List[Tuple[LOID, ObjectAddress]]:
        record = self.managed.get(loid.identity)
        return list(record.replicas) if record is not None else []

    # ------------------------------------------------------------------ activation

    @legion_method("address Activate(LOID)")
    def activate_default(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Activate(LOID): no host suggestion."""
        return self.activate_on(loid, None, ctx=ctx)

    @legion_method("address Activate(LOID, LOID)")
    def activate_on(
        self, loid: LOID, host_hint: Optional[LOID], *, ctx: Optional[InvocationContext] = None
    ):
        """Make an object Active; returns its Object Address.

        Idempotent for already-Active objects ("causes it to become a
        running process ... if the object isn't already Active").  The
        second parameter lets "a Scheduling Agent (or any other Legion
        object) provide suggestions about where to run the object".
        """
        record = self._get_managed(loid)
        if record.state is ObjectState.ACTIVE:
            if record.address is None and record.replicas:
                # A system-level replicated object (section 4.3): the
                # *class* owns the combined group address; a magistrate
                # only knows its local replicas and cannot activate "the"
                # object at a single address.
                raise RequestRefused(
                    f"{loid} is a replica group; its class manages the "
                    "group address"
                )
            return record.address
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        opr = self.jurisdiction.vault.load_opr(loid)
        self._checked(opr)
        host = self._choose_host(host_hint, loid)
        address = yield from self.runtime.invoke(host, "Activate", opr, env=env)
        self.jurisdiction.vault.delete_opr(loid)
        record.state = ObjectState.ACTIVE
        record.host = host
        record.address = address
        if record.lost:
            # This activation repaired a failure (demotion), whichever path
            # requested it -- RecoverObject, a sweep, or a plain Activate
            # after the class cleared the stale row.
            record.lost = False
            log = getattr(self.services, "fault_log", None)
            if log is not None:
                log.observe(
                    self.services.kernel.now, "object-recovered", str(loid),
                    detail=f"reactivated on {host}",
                )
        yield from self._notify_class(
            record, "NoteActivated", loid, address, self.loid, env=env
        )
        return address

    @legion_method("Deactivate(LOID)")
    def deactivate(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Move an object to the Inert state: OPR into the vault (3.1)."""
        record = self._get_managed(loid)
        if record.state is ObjectState.INERT:
            return  # idempotent
        if record.replicas:
            raise LifecycleError(
                f"{loid} is a replica group: it has no single process to "
                "deactivate; shrink it via ReportDeadReplica or remove it "
                "via Delete"
            )
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        state = yield from self.runtime.invoke(
            record.host, "Deactivate", loid, env=env
        )
        assert record.template is not None
        opr = record.template.with_state(state)
        self.jurisdiction.vault.store_opr(opr)
        record.state = ObjectState.INERT
        record.host = None
        record.address = None
        yield from self._notify_class(
            record, "NoteDeactivated", loid, self.loid, env=env
        )

    # ------------------------------------------------------------------- recovery

    @legion_method("Checkpoint(LOID)")
    def checkpoint(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Snapshot a running object's state into the vault, without
        stopping it.  A later host crash reactivates from this point
        (RecoverObject) instead of losing the state with the process."""
        record = self._get_managed(loid)
        if record.state is ObjectState.INERT:
            return  # the vault OPR already IS the latest state
        if record.replicas:
            raise LifecycleError(
                f"{loid} is a replica group: its replicas carry the "
                "redundancy; there is no single process to checkpoint"
            )
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        state = yield from self.runtime.invoke(
            record.host, "CheckpointObject", loid, env=env
        )
        assert record.template is not None
        self.jurisdiction.vault.store_opr(record.template.with_state(state))

    @legion_method("address RecoverObject(LOID)")
    def recover_object(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Reactivate a lost object on a surviving host; returns its address.

        The class calls this when a caller reports a stale binding for an
        object this magistrate records as Active.  The record alone cannot
        be trusted -- the process may be fine (the caller hit a transient
        fault) or gone (its host crashed) -- so the recorded host is probed
        first.  Concurrent calls for one object coalesce onto a single
        probe + reactivation.
        """
        record = self._get_managed(loid)
        address = yield from single_flight(
            self._recovering, loid.identity, "recover", self._recover_object(record, ctx)
        )
        return address

    def _recover_object(self, record: ManagedObject, ctx):
        loid = record.loid
        lost_host = record.host
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        if record.state is ObjectState.ACTIVE:
            if record.address is None and record.replicas:
                raise RequestRefused(
                    f"{loid} is a replica group; its class manages the group address"
                )
            alive = False
            if lost_host is not None:
                # Work off the snapshot: the probe yields, and a concurrent
                # sweep may demote this very record (record.host -> None)
                # while we wait.
                status, value = yield from self._probe_host(
                    lost_host, "HasProcess", (loid,), env
                )
                if status == "unknown":
                    # Cannot judge liveness (partition, loss); recovering
                    # now could split-brain the object.  Let the caller
                    # retry once the network settles.
                    raise RequestRefused(
                        f"cannot prove {loid} lost: host {lost_host} unreachable"
                    )
                if status == "dead":
                    self.suspect_hosts.add(lost_host.identity)
                alive = status == "alive" and bool(value)
            if alive and record.state is ObjectState.ACTIVE:
                return record.address  # transient fault; the address works
            if record.state is ObjectState.ACTIVE:
                self._demote_to_inert(record, "process lost")
        # Inert now: reactivate from the persisted OPR -- but keep the
        # checkpoint, because activate_on consumes the vault copy and a
        # second crash before the next checkpoint must not lose the state.
        checkpoint = None
        if self.jurisdiction.vault.holds(loid):
            checkpoint = self.jurisdiction.vault.load_opr(loid)
        address = yield from self.activate_on(loid, None, ctx=ctx)
        if checkpoint is not None:
            self.jurisdiction.vault.store_opr(checkpoint)
        return address

    @legion_method("list SweepHosts()")
    def sweep_hosts(self, *, ctx: Optional[InvocationContext] = None):
        """The reap sweep: probe every adopted host; when one is provably
        dead, demote its resident objects and reactivate them elsewhere.
        Returns the LOIDs of hosts newly found dead."""
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        failed: List[LOID] = []
        for host in list(self.hosts):
            status, _state = yield from self._probe_host(
                host.loid, "GetState", (), env
            )
            if status == "alive":
                # Also clears a false suspicion, so capacity marked dead in
                # error returns to the placement pool.
                self.suspect_hosts.discard(host.loid.identity)
                continue
            if status == "unknown":
                continue  # unreachable or lossy, not provably dead
            if host.loid.identity not in self.suspect_hosts:
                self.suspect_hosts.add(host.loid.identity)
                failed.append(host.loid)
            residents = [
                r
                for r in self.managed.values()
                if r.state is ObjectState.ACTIVE and r.host == host.loid
            ]
            # Class objects (clones) first: their instances' recoveries may
            # route through them, and an autoscaler wants the pool healed
            # before the pool's tenants.
            residents.sort(
                key=lambda r: (
                    r.template is None
                    or r.template.component_kind != "class-object"
                )
            )
            for record in residents:
                self._demote_to_inert(record, f"host {host.loid} lost")
                try:
                    yield from self.recover_object(record.loid, ctx=ctx)
                except ProcessKilled:
                    raise  # the sweeping process itself is being torn down
                except Exception:  # noqa: BLE001 - no surviving capacity yet
                    # Leave the record Inert; a later sweep (or the class's
                    # GetBinding-on-stale path) retries the reactivation.
                    # Tell the class, so a routing pool (clone autoscaling)
                    # stops sending traffic at a provably dead address.
                    yield from self._notify_class(
                        record, "NoteDeactivated", record.loid, self.loid, env=env
                    )
        return failed

    def _demote_to_inert(self, record: ManagedObject, reason: str) -> None:
        """Mark a lost Active object Inert, recoverable from the vault.

        Prefers an existing checkpoint OPR; falls back to the creation
        template (state since the last checkpoint is lost, but the object
        survives -- better than dropping it from management).
        """
        loid = record.loid
        if not self.jurisdiction.vault.holds(loid) and record.template is not None:
            self.jurisdiction.vault.store_opr(record.template)
        record.state = ObjectState.INERT
        record.host = None
        record.address = None
        record.lost = True
        log = getattr(self.services, "fault_log", None)
        if log is not None:
            log.observe(
                self.services.kernel.now, "object-demoted", str(loid), detail=reason
            )

    # -------------------------------------------------------------------- deletion

    @legion_method("Delete(LOID)")
    def delete(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Remove the object from existence: Active and Inert copies both.

        "After a Delete() function is successfully executed, future
        attempts to bind the LOID to an Object Address will be
        unsuccessful.  Stale bindings may exist, but will be eventually
        removed as objects unsuccessfully try to use them."
        """
        record = self.managed.get(loid.identity)
        if record is None:
            return  # idempotent: not ours (any more)
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        if record.state is ObjectState.ACTIVE and record.host is not None:
            yield from self.runtime.invoke(record.host, "KillObject", loid, env=env)
        for host, _address in record.replicas:
            yield from self.runtime.invoke(host, "KillObject", loid, env=env)
        self.jurisdiction.vault.delete_opr(loid)
        del self.managed[loid.identity]

    # ------------------------------------------------------------------- migration

    @legion_method("bytes ExportObject(LOID)")
    def export_object(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Deactivate (if needed) and hand out the OPR bytes (Copy's source)."""
        record = self._get_managed(loid)
        if record.state is ObjectState.ACTIVE:
            yield from self.deactivate(loid, ctx=ctx)
        opr = self.jurisdiction.vault.load_opr(loid)
        return opr.to_bytes()

    @legion_method("ImportObject(bytes)")
    def import_object(self, blob: bytes, *, ctx: Optional[InvocationContext] = None) -> None:
        """Receive a migrating object's OPR (Copy's destination).

        Subject to the same admission policy as creation: a jurisdiction
        cannot be forced to accept objects it does not trust.
        """
        opr = OPRecord.from_bytes(blob)
        self._checked(opr)
        self.jurisdiction.vault.store_opr(opr)
        self.managed[opr.loid.identity] = ManagedObject(
            loid=opr.loid,
            class_loid=opr.class_loid,
            state=ObjectState.INERT,
            template=opr.with_state(None),
        )

    @legion_method("Copy(LOID, LOID)")
    def copy(self, loid: LOID, target_magistrate: LOID, *, ctx: Optional[InvocationContext] = None):
        """Replicate the OPR to another Magistrate (section 3.8).

        "This function causes the Magistrate to deactivate the object,
        creating an Object Persistent Representation, and to send the
        Object Persistent Representation to the other Magistrate."
        """
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        record = yield from self._send_opr(loid, target_magistrate, env, ctx)
        yield from self._notify_class(
            record, "NoteCopied", loid, target_magistrate, env=env
        )

    @legion_method("Move(LOID, LOID)")
    def move(self, loid: LOID, target_magistrate: LOID, *, ctx: Optional[InvocationContext] = None):
        """Change the managing Magistrate: "equivalent to Copy() then Delete()"."""
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        record = yield from self._send_opr(loid, target_magistrate, env, ctx)
        self.jurisdiction.vault.delete_opr(loid)
        del self.managed[loid.identity]
        yield from self._notify_class(
            record, "NoteMigrated", loid, self.loid, target_magistrate, env=env
        )

    def _send_opr(self, loid: LOID, target_magistrate: LOID, env, ctx):
        """The leg Copy and Move share: export here, ImportObject there.
        Returns the (still managed) record for the class notification."""
        blob = yield from self.export_object(loid, ctx=ctx)
        yield from self.runtime.invoke(
            target_magistrate, "ImportObject", blob, env=env
        )
        return self._get_managed(loid)

    # ------------------------------------------------------------------- reporting

    @legion_method("ReportExceptions(LOID, list)")
    def report_exceptions(self, host: LOID, reaped: List[Tuple[LOID, str]]) -> None:
        """A Host Object reports crashed processes it reaped.

        Crashed Active objects fall back to Inert-with-last-OPR if the
        vault still has one, otherwise they are dropped from management
        (their class will fail future GetBinding with BindingNotFound).
        """
        for loid, reason in reaped:
            self.exception_log.append((host, loid, reason or ""))
            record = self.managed.get(loid.identity)
            if record is None:
                continue
            if record.state is ObjectState.ACTIVE and record.host != host:
                # The object was already recovered onto another host before
                # this report arrived; demoting it now would kill a healthy
                # process's record.  The report is stale -- log only.
                continue
            if self.jurisdiction.vault.holds(loid):
                self._demote_to_inert(record, reason or "crashed")
            else:
                del self.managed[loid.identity]

    # ------------------------------------------------------------------- queries

    @legion_method("state GetObjectState(LOID)")
    def get_object_state(self, loid: LOID) -> ObjectState:
        """Whether the object is currently Active or Inert here."""
        return self._get_managed(loid).state

    @legion_method("int ManagedCount()")
    def managed_count(self) -> int:
        """How many objects this magistrate currently manages."""
        return len(self.managed)

    # -------------------------------------------------------------------- helpers

    def _get_managed(self, loid: LOID) -> ManagedObject:
        record = self.managed.get(loid.identity)
        if record is None:
            raise UnknownObject(
                f"magistrate of {self.jurisdiction.name} does not manage {loid}"
            )
        return record

    def _notify_class(self, record: ManagedObject, method: str, *args, env):
        """Keep the owning class's logical table current (section 3.7).

        Best-effort: a class that is unreachable (or that never created
        the object, e.g. bootstrap objects) must not wedge lifecycle
        operations, so failures are swallowed.
        """
        try:
            yield from self.runtime.invoke(record.class_loid, method, *args, env=env)
        except Exception:  # noqa: BLE001 - notification is best-effort
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.jurisdiction.name!r} "
            f"managed={len(self.managed)} hosts={len(self.hosts)}>"
        )
