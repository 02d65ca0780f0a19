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
* ``ImportObject(bytes)`` -- the receiving half of migration.
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
    DeliveryFailure,
    InvocationTimeout,
    LegionError,
    LifecycleError,
    NoCapacity,
    PartitionedError,
    RequestRefused,
    UnknownObject,
)
from repro.core.method import InvocationContext
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.jurisdiction.jurisdiction import Jurisdiction
from repro.metrics.counters import OPR_KINDS
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress
from repro.persistence.opr import OPRecord
from repro.simkernel.futures import SimFuture, shared_failure


class ObjectState(enum.Enum):
    """The life of a managed object: section 3.1's two states, and three more."""

    ACTIVE = "active"
    INERT = "inert"
    #: Inert through a failure: activating it is a recovery.
    LOST = "lost"
    #: Replica processes (section 4.3); the class owns the group address.
    GROUP = "group"
    #: The OPR went to another magistrate: Activate and RecoverObject
    #: follow it there until the class acknowledges NoteMigrated.
    MOVED = "moved"

    # Every request looks LIFECYCLE up: hash in C, not in ``Enum.__hash__``.
    __hash__ = object.__hash__


ACTIVE, INERT, LOST, GROUP, MOVED = ObjectState
#: The lifecycle, declared once: for each state, the requests it accepts
#: and the state each leaves the record in (None: the record goes; Fail: a
#: failure the magistrate observes).  Any other request is refused with
#: ``REFUSALS[request]`` (the class then tries its next magistrate) or
#: LifecycleError.
LIFECYCLE: Dict[ObjectState, Dict[str, Optional[ObjectState]]] = {
    ACTIVE: dict(Activate=ACTIVE, Checkpoint=ACTIVE, RecoverObject=ACTIVE, Deactivate=INERT,
                 Copy=INERT, Move=MOVED, Fail=LOST, Delete=None),
    INERT: dict(Activate=ACTIVE, RecoverObject=ACTIVE, Deactivate=INERT, Checkpoint=INERT,
                Copy=INERT, Move=MOVED, Delete=None),
    LOST: dict(Activate=ACTIVE, RecoverObject=ACTIVE, Deactivate=LOST, Checkpoint=LOST,
               Copy=LOST, Move=MOVED, Delete=None),
    GROUP: dict(Delete=None),
    MOVED: dict(Activate=MOVED, RecoverObject=MOVED, Delete=None),
}
REFUSALS = {"Activate": RequestRefused, "RecoverObject": RequestRefused}


@dataclass
class ManagedObject:
    """The magistrate's record of one object under its control."""

    loid: LOID
    class_loid: LOID
    state: ObjectState
    #: Host Object the process runs on (ACTIVE), or the magistrate the
    #: object moved to (MOVED).
    host: Optional[LOID]
    #: Current Object Address (ACTIVE only).
    address: Optional[ObjectAddress]
    #: The OPR template (identity + factory chain, no state); combined with
    #: freshly saved state on each deactivation.
    template: OPRecord
    #: For system-level replicated objects (section 4.3): the (host LOID,
    #: Object Address) of each replica process this magistrate runs.
    replicas: List[Tuple[LOID, ObjectAddress]] = field(default_factory=list)


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
        #: object identity → its one transition in flight (see _transition).
        self._inflight: Dict[Tuple[int, int], list] = {}

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

    def _choose_host(self, hint: Optional[LOID], loid: LOID) -> LOID:
        """Pick the Host Object for an activation: the hint (or a standing
        suggestion for ``loid``), else round-robin over unsuspected hosts."""
        if hint is None:
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
        except LegionError:
            return ("unknown", None)

    # ------------------------------------------------------------------ admission

    def admit_opr(self, opr: OPRecord) -> bool:
        """Site-specific admission hook over the object's implementation.

        Subclasses implement trust decisions here (e.g. a DOE magistrate
        admitting only certified factory names).
        """
        return True

    def _checked(self, opr: OPRecord) -> None:
        if not self.admit_opr(opr):
            raise RequestRefused(
                f"magistrate of {self.jurisdiction.name} refuses {opr.loid} "
                f"(implementation {opr.factory_chain[0][0]!r})"
            )

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
        self._adopt(opr, ACTIVE, host, address)
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
        record = self.managed.get(opr.loid.identity)
        used = {host for host, _addr in record.replicas} if record else set()
        host = None
        if host_hint is not None:
            host = self._choose_host(host_hint, opr.loid)
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
            record = self._adopt(opr, GROUP, None, None)
        record.replicas.append((host, address))
        return address

    def _adopt(self, opr: OPRecord, state: ObjectState, host, address) -> ManagedObject:
        """Take charge of ``opr``'s object: its record, born in ``state``."""
        record = ManagedObject(opr.loid, opr.class_loid, state, host, address, opr.with_state(None))
        self.managed[opr.loid.identity] = record
        return record

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
        return self._transition(loid, "Activate", ctx, self._activate, host_hint)

    def _activate(self, record: ManagedObject, env, host_hint: Optional[LOID]):
        if record.state is ACTIVE:
            return record.address, ()
        opr = self.jurisdiction.vault.load_opr(record.loid)
        self._checked(opr)
        host = self._choose_host(host_hint, record.loid)
        address = yield from self.runtime.invoke(host, "Activate", opr, env=env)
        self._enter(record, ACTIVE, host, address, "Activate")
        return address, self._notify_class(
            record, "NoteActivated", record.loid, address, self.loid, env=env
        )

    @legion_method("Deactivate(LOID)")
    def deactivate(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Move an object to the Inert state: OPR into the vault (3.1)."""
        return self._transition(loid, "Deactivate", ctx, self._deactivate)

    def _deactivate(self, record: ManagedObject, env):
        if record.state is not ACTIVE:
            return None, ()  # idempotent: nothing runs
        yield from self._save(record, env, "Deactivate")
        self._enter(record, INERT, None, None, "Deactivate")
        return None, self._notify_class(
            record, "NoteDeactivated", record.loid, self.loid, env=env
        )

    # ------------------------------------------------------------------- recovery

    @legion_method("Checkpoint(LOID)")
    def checkpoint(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Snapshot a running object's state into the vault, without
        stopping it.  A later host crash reactivates from this point
        (RecoverObject) instead of losing the state with the process."""
        return self._transition(loid, "Checkpoint", ctx, self._save, "CheckpointObject")

    def _save(self, record: ManagedObject, env, method: str):
        """Vault a running object's state (an Inert one's OPR IS its state)."""
        if record.state is ACTIVE:
            state = yield from self.runtime.invoke(record.host, method, record.loid, env=env)
            self.jurisdiction.vault.store_opr(record.template.with_state(state))
        return None, ()

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
        return self._transition(loid, "RecoverObject", ctx, self._recover)

    def _recover(self, record: ManagedObject, env):
        loid = record.loid
        lost_host = record.host
        if record.state is ACTIVE:
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
            if alive and record.state is ACTIVE:
                return record.address, ()  # transient fault; the address works
            if record.state is ACTIVE:
                self._enter(record, LOST, None, None, "process lost")
        # Lost (or Inert) now: reactivate; riders answer once the class knows.
        address, notice = yield from self._activate(record, env, None)
        yield from notice
        return address, ()

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
                if r.state is ACTIVE and r.host == host.loid
            ]
            # Class objects (clones) first: their instances' recoveries may
            # route through them, and an autoscaler wants the pool healed
            # before the pool's tenants.
            residents.sort(
                key=lambda r: (
                    r.template.component_kind != "class-object"
                )
            )
            for record in residents:
                if record.state is ACTIVE and record.host == host.loid:
                    # (not if recovered meanwhile: RecoverObject confirms that)
                    self._enter(record, LOST, None, None, f"host {host.loid} lost")
                try:
                    yield from self.recover_object(record.loid, ctx=ctx)
                except Exception:  # noqa: BLE001 - no surviving capacity yet
                    # Leave the record Lost; a later sweep (or the class's
                    # GetBinding-on-stale path) retries the reactivation.
                    # Tell the class, so a routing pool (clone autoscaling)
                    # stops sending traffic at a provably dead address.
                    yield from self._notify_class(
                        record, "NoteDeactivated", record.loid, self.loid, env=env
                    )
        return failed

    # -------------------------------------------------------------------- deletion

    @legion_method("Delete(LOID)")
    def delete(self, loid: LOID, *, ctx: Optional[InvocationContext] = None):
        """Remove the object from existence: Active and Inert copies both.

        "After a Delete() function is successfully executed, future
        attempts to bind the LOID to an Object Address will be
        unsuccessful.  Stale bindings may exist, but will be eventually
        removed as objects unsuccessfully try to use them."
        """
        if loid.identity not in self.managed:
            return None  # idempotent: not ours (any more)
        return self._transition(loid, "Delete", ctx, self._delete)

    def _delete(self, record: ManagedObject, env):
        loid = record.loid
        if record.state is ACTIVE:
            yield from self.runtime.invoke(record.host, "KillObject", loid, env=env)
        elif record.state is INERT or record.state is LOST:
            # No process to kill, so no host retires the metrics entry.
            kind = OPR_KINDS[record.template.component_kind]
            self.services.metrics.retire((kind, str(loid)))
        for host, _address in record.replicas:
            yield from self.runtime.invoke(host, "KillObject", loid, env=env)
        self.jurisdiction.vault.delete_opr(loid)
        del self.managed[loid.identity]
        return None, ()

    # ------------------------------------------------------------------- migration

    @legion_method("ImportObject(bytes)")
    def import_object(self, blob: bytes, *, ctx: Optional[InvocationContext] = None) -> None:
        """Receive a migrating object's OPR (Copy's destination).

        Subject to the same admission policy as creation: a jurisdiction
        cannot be forced to accept objects it does not trust.
        """
        opr = OPRecord.from_bytes(blob)
        self._checked(opr)
        self.jurisdiction.vault.store_opr(opr)
        self._adopt(opr, INERT, None, None)

    @legion_method("Copy(LOID, LOID)")
    def copy(self, loid: LOID, target_magistrate: LOID, *, ctx: Optional[InvocationContext] = None):
        """Replicate the OPR to another Magistrate (section 3.8).

        "This function causes the Magistrate to deactivate the object,
        creating an Object Persistent Representation, and to send the
        Object Persistent Representation to the other Magistrate."
        """
        return self._transition(loid, "Copy", ctx, self._copy, target_magistrate)

    def _copy(self, record: ManagedObject, env, target_magistrate: LOID):
        yield from self._send_opr(record, env, target_magistrate)
        return None, self._notify_class(
            record, "NoteCopied", record.loid, target_magistrate, env=env
        )

    @legion_method("Move(LOID, LOID)")
    def move(self, loid: LOID, target_magistrate: LOID, *, ctx: Optional[InvocationContext] = None):
        """Change the managing Magistrate: "equivalent to Copy() then Delete()"."""
        return self._transition(loid, "Move", ctx, self._move, target_magistrate)

    def _move(self, record: ManagedObject, env, target_magistrate: LOID):
        yield from self._send_opr(record, env, target_magistrate)
        self._enter(record, MOVED, target_magistrate, None, "Move")
        return None, self._notify_class(
            record, "NoteMigrated", record.loid, self.loid, target_magistrate, env=env
        )

    def _send_opr(self, record: ManagedObject, env, target_magistrate: LOID):
        """The leg Copy and Move share: deactivate here, ImportObject there."""
        _, notice = yield from self._deactivate(record, env)
        yield from notice
        blob = self.jurisdiction.vault.load_opr(record.loid).to_bytes()
        yield from self.runtime.invoke(
            target_magistrate, "ImportObject", blob, env=env
        )

    # ------------------------------------------------------------------- reporting

    @legion_method("ReportExceptions(LOID, list)")
    def report_exceptions(self, host: LOID, reaped: List[Tuple[LOID, str]]) -> None:
        """A Host Object reports crashed processes it reaped.

        Crashed Active objects fall back to Lost-with-last-OPR if the
        vault still has one, otherwise they are dropped from management
        (their class will fail future GetBinding with BindingNotFound).
        """
        for loid, reason in reaped:
            self.exception_log.append((host, loid, reason or ""))
            record = self.managed.get(loid.identity)
            if record is None or record.state is not ACTIVE or record.host != host:
                # Not running there: recovered elsewhere (or already down)
                # before this report arrived; demoting it now would kill a
                # healthy process's record.  The report is stale -- log only.
                continue
            if self.jurisdiction.vault.holds(loid):
                self._enter(record, LOST, None, None, reason or "crashed")
            else:
                del self.managed[loid.identity]

    # ------------------------------------------------------------------- queries

    @legion_method("state GetObjectState(LOID)")
    def get_object_state(self, loid: LOID) -> ObjectState:
        """The object's lifecycle state here."""
        return self._get_managed(loid).state

    @legion_method("int ManagedCount()")
    def managed_count(self) -> int:
        """How many objects this magistrate currently manages."""
        return len(self.managed)

    # ------------------------------------------------------------------ lifecycle

    def _transition(self, loid: LOID, request: str, ctx, body, *args):
        """Run ``body(record, env, *args)`` as the object's one transition in
        flight: the same request rides it, any other waits until its move is
        made, then acts on that state; refused requests raise, and MOVED's are
        the target's.  ``body`` returns (value, notice: tell the class after)."""
        env = ctx.nested_env(self.loid) if ctx else self.own_env()
        key = loid.identity
        entry = self._inflight.get(key)
        while entry is not None:
            # The first to wait on a transition makes its future.
            inflight = entry[2] = entry[2] or SimFuture(entry[0])
            if entry[0] == request:
                value = yield inflight
                return value
            record = self.managed.get(key)
            if record is None or record.state is entry[1]:
                break  # its move is made: act on that state, beside its tail
            try:
                yield inflight
            except Exception:  # noqa: BLE001 - its failure is its caller's
                pass
            entry = self._inflight.get(key)
        record = self.managed.get(key) or self._get_managed(loid)  # (raises if absent)
        accepted = LIFECYCLE[record.state]
        if request not in accepted:
            raise REFUSALS.get(request, LifecycleError)(
                f"{loid} is {record.state.value} at the magistrate of "
                f"{self.jurisdiction.name}: {request} refused (legal: {', '.join(accepted)})"
            )
        if record.state is MOVED and accepted[request] is MOVED:
            value = yield from self.runtime.invoke(record.host, request, loid, env=env)
            return value
        mine = None
        if entry is None:  # [request, the state it moves to, future if awaited]
            mine = self._inflight[key] = [request, accepted[request], None]
        try:
            value, notice = yield from body(record, env, *args)
        except BaseException as exc:
            if mine is not None:
                del self._inflight[key]
                if mine[2] is not None:
                    mine[2].set_exception(shared_failure(exc))
            raise
        if mine is not None:
            del self._inflight[key]
            if mine[2] is not None:
                mine[2].set_result(value)
        yield from notice
        return value

    def _enter(self, record: ManagedObject, state: ObjectState, host, address, why: str):
        """Make one lifecycle move, the only write of a record's state, host
        and address; raise on a move ``LIFECYCLE`` does not list.  Entering
        LOST keeps an OPR (the template if none was checkpointed) and logs
        ``why``; LOST -> ACTIVE is a recovery and keeps that OPR for a second
        crash; INERT -> ACTIVE consumes it, as entering MOVED drops it."""
        loid, moves = record.loid, LIFECYCLE[record.state].values()
        if state not in moves:
            raise LifecycleError(
                f"{loid} cannot move from {record.state.value} to {state.value} "
                f"(legal: {', '.join(sorted({s.value for s in moves if s is not None}))})"
            )
        vault, event = self.jurisdiction.vault, None
        if state is LOST:
            if not vault.holds(loid):
                vault.store_opr(record.template)
            event = ("object-demoted", why)
        elif state is MOVED or record.state is INERT:
            vault.delete_opr(loid)
        elif record.state is LOST:  # -> ACTIVE
            event = ("object-recovered", f"reactivated on {host}")
        log = self.services.fault_log if event else None
        if log is not None:
            log.observe(self.services.kernel.now, event[0], str(loid), detail=event[1])
        record.state, record.host, record.address = state, host, address

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
        operations, so failures are swallowed.  Once the class has heard,
        a MOVED record has nothing left to answer for, and goes.
        """
        try:
            yield from self.runtime.invoke(record.class_loid, method, *args, env=env)
        except Exception:  # noqa: BLE001 - notification is best-effort
            return
        if record.state is MOVED and self.managed.get(record.loid.identity) is record:
            del self.managed[record.loid.identity]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.jurisdiction.name!r} "
            f"managed={len(self.managed)} hosts={len(self.hosts)}>"
        )
