"""HostObjectImpl: the base Host Object implementation (section 3.9).

"Host Objects export member functions that start or restart processes,
that suspend processes that are currently running, and that restrict
access to the host.  The full set ... will include at least the following:
Activate(), Deactivate(), SetCPUload(), SetMemoryUsage(), and GetState()."

Activation is where an Object Persistent Representation becomes a live
process: the host instantiates the OPR's factory chain (a single factory,
or a :class:`~repro.core.composite.CompositeImpl` for multiply-inheriting
classes), restores saved state, and registers an
:class:`~repro.core.server.ObjectServer` at a fresh endpoint on this host.

Access restriction follows the paper's trust philosophy: the host's MayI
policy (typically "only my Magistrate") guards every member function, and
an additional admission hook (:meth:`admit`) lets site-specific subclasses
refuse individual OPRs -- the "certified not to leak information" hosts of
the DOE scenario.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import HostError, NoCapacity, RequestRefused
from repro.core.composite import CompositeImpl
from repro.core.method import InvocationContext
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.core.server import ObjectServer
from repro.hosts.process_table import ProcessEntry, ProcessTable
from repro.metrics.counters import ComponentKind
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress
from repro.persistence.opr import OPRecord

#: OPR ``component_kind`` string → metrics kind for the new server.
_KIND_MAP = {
    "application": ComponentKind.APPLICATION,
    "class-object": ComponentKind.CLASS_OBJECT,
    "binding-agent": ComponentKind.BINDING_AGENT,
    "magistrate": ComponentKind.MAGISTRATE,
    "host-object": ComponentKind.HOST_OBJECT,
    "scheduler": ComponentKind.SCHEDULER,
}


class HostState:
    """The GetState() report: a plain, picklable capacity snapshot."""

    def __init__(
        self,
        host_id: int,
        process_count: int,
        max_processes: Optional[int],
        cpu_load: float,
        memory_used: int,
        accepting: bool,
    ) -> None:
        self.host_id = host_id
        self.process_count = process_count
        self.max_processes = max_processes
        self.cpu_load = cpu_load
        self.memory_used = memory_used
        self.accepting = accepting

    @property
    def free_slots(self) -> float:
        """Remaining process slots (inf when unlimited)."""
        if self.max_processes is None:
            return float("inf")
        return self.max_processes - self.process_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HostState host={self.host_id} procs={self.process_count}"
            f"/{self.max_processes} load={self.cpu_load:.2f}>"
        )


class HostObjectImpl(LegionObjectImpl):
    """The base Host Object.  Platform flavours subclass this (Fig. 8)."""

    #: Platform label reported in GetState and used by schedulers.
    platform = "generic"

    def __init__(
        self,
        host_id: int,
        max_processes: Optional[int] = None,
        cpu_capacity: float = 1.0,
        memory_capacity: Optional[int] = None,
        node_count: int = 1,
    ) -> None:
        self.host_id = host_id
        self.max_processes = max_processes
        self.cpu_capacity = cpu_capacity
        self.memory_capacity = memory_capacity
        self.node_count = node_count
        self.processes = ProcessTable()
        #: Admission limits settable via SetCPUload / SetMemoryUsage.
        self.cpu_load_limit: Optional[float] = None
        self.memory_limit: Optional[int] = memory_capacity
        #: When False the host refuses all new activations.
        self.accepting = True
        #: The Binding Agent installed into objects activated here (the
        #: site's agent); set by bootstrap.
        self.site_binding_agent: Optional[Binding] = None
        #: The Magistrate responsible for this host (exception reports go
        #: there); set when the magistrate adopts the host.
        self.magistrate: Optional[LOID] = None

    # ------------------------------------------------------------------ admission

    def admit(self, opr: OPRecord) -> bool:
        """Site-specific admission hook; subclasses enforce local policy.

        Returning False refuses the activation with RequestRefused --
        Host Objects decide "which objects can run on the host" (2.3).
        """
        return True

    def assign_node(self) -> int:
        """The platform-specific node number for the next activation.

        Section 3.4: "on multiprocessors, a 32 bit platform-specific
        internal node number may be used to distinguish each particular
        processor."  Uniprocessors return 0; UnixSMMP round-robins.
        """
        return 0

    def _check_capacity(self, opr: OPRecord) -> None:
        if not self.accepting:
            raise RequestRefused(f"host {self.host_id} is not accepting objects")
        if (
            self.max_processes is not None
            and self.processes.live >= self.max_processes
        ):
            raise NoCapacity(
                f"host {self.host_id} is full "
                f"({self.max_processes} process slots)"
            )
        if (
            self.cpu_load_limit is not None
            and self.processes.total_cpu_share >= self.cpu_load_limit
        ):
            raise NoCapacity(f"host {self.host_id} is at its CPU-load limit")
        if self.memory_limit is not None and (
            self.processes.total_memory + opr.annotations.get("memory_bytes", 0)
            > self.memory_limit
        ):
            raise NoCapacity(
                f"host {self.host_id} is at its memory limit "
                f"({self.memory_limit} bytes)"
            )

    # ------------------------------------------------------------------- Activate

    @legion_method("address Activate(opr)")
    def activate(self, opr: OPRecord, *, ctx: Optional[InvocationContext] = None) -> ObjectAddress:
        """Start an object process from its OPR; returns its Object Address."""
        tracer = self.services.tracer
        span = None
        if tracer is not None:
            server = getattr(self, "server", None)
            span = tracer.start(
                "activate",
                "activate",
                parent=ctx.env.trace if ctx is not None else None,
                component=server._component_label if server is not None else "",
            )
            span.annotate(target=str(opr.loid), kind=opr.component_kind)
        try:
            return self._activate(opr)
        except BaseException as exc:
            if span is not None:
                span.status = type(exc).__name__
            raise
        finally:
            if span is not None:
                tracer.finish(span)

    def _activate(self, opr: OPRecord) -> ObjectAddress:
        self._check_capacity(opr)
        if not self.admit(opr):
            raise RequestRefused(
                f"host {self.host_id} refuses to run {opr.loid} "
                f"(implementation {opr.factory_chain[0][0]!r})"
            )
        if opr.loid in self.processes:
            entry = self.processes.get(opr.loid)
            if not entry.crashed:
                return entry.server.address  # already running here
            self.processes.remove(opr.loid)

        parts = []
        exposures = []
        for factory, init in opr.factory_chain:
            init = dict(init)
            # Selective inheritance marker (see ClassObjectImpl
            # inherit_from_selective): which of this part's methods are
            # exposed; not a constructor argument.
            exposed = init.pop("__expose__", None)
            parts.append(self.services.impls.create(factory, **init))
            exposures.append(None if exposed is None else set(exposed))
        if len(parts) == 1 and exposures[0] is None:
            impl = parts[0]
        else:
            impl = CompositeImpl(parts, exposures)
        if opr.state is not None:
            impl.restore_state(opr.state)
        kind = _KIND_MAP.get(opr.component_kind, ComponentKind.OTHER)
        server = ObjectServer(
            self.services,
            opr.loid,
            impl,
            host=self.host_id,
            node=self.assign_node(),
            component_kind=kind,
        )
        if self.site_binding_agent is not None:
            server.runtime.binding_agent = self.site_binding_agent
        self.processes.add(
            ProcessEntry(
                loid=opr.loid,
                server=server,
                started_at=self.services.kernel.now,
                memory_bytes=opr.annotations.get("memory_bytes", 0),
                cpu_share=opr.annotations.get("cpu_share", 1.0),
            )
        )
        return server.address

    # ------------------------------------------------------------------ Deactivate

    @legion_method("bytes Deactivate(LOID)")
    def deactivate(self, loid: LOID) -> bytes:
        """Suspend a process: SaveState(), tear down, return the state bytes.

        The caller (a Magistrate) wraps the bytes into an OPR and stores
        it in the jurisdiction's vault (section 3.1).
        """
        entry = self.processes.get(loid)
        if entry.crashed:
            self.processes.remove(loid)
            raise HostError(f"{loid} crashed on host {self.host_id}; state lost")
        state = entry.server.impl.save_state()
        entry.server.deactivate()
        self.processes.remove(loid)
        return state

    @legion_method("KillObject(LOID)")
    def kill_object(self, loid: LOID) -> None:
        """Terminate a process without saving state (the Delete() path)."""
        entry = self.processes.find(loid)
        if entry is None:
            return  # idempotent: already gone
        if not entry.crashed:
            entry.server.deactivate()
        self.processes.remove(loid)

    # --------------------------------------------------------------- resource limits

    @legion_method("SetCPUload(float)")
    def set_cpu_load(self, limit: float) -> None:
        """Cap the aggregate CPU share of Legion processes on this host."""
        if limit < 0:
            raise HostError(f"negative CPU-load limit {limit}")
        self.cpu_load_limit = limit

    @legion_method("SetMemoryUsage(int)")
    def set_memory_usage(self, limit: int) -> None:
        """Cap the aggregate memory of Legion processes on this host."""
        if limit < 0:
            raise HostError(f"negative memory limit {limit}")
        self.memory_limit = limit

    @legion_method("state GetState()")
    def get_state(self) -> HostState:
        """Capacity snapshot (used by placement policies and monitors)."""
        processes = self.processes
        cpu = processes.total_cpu_share / self.cpu_capacity if self.cpu_capacity else 0.0
        return HostState(
            host_id=self.host_id,
            process_count=processes.live,
            max_processes=self.max_processes,
            cpu_load=cpu,
            memory_used=processes.total_memory,
            accepting=self.accepting,
        )

    @legion_method("SetAccepting(bool)")
    def set_accepting(self, accepting: bool) -> None:
        """Open/close the host to new activations (drain for maintenance)."""
        self.accepting = bool(accepting)

    @legion_method("bool HasProcess(LOID)")
    def has_process(self, loid: LOID) -> bool:
        """Liveness probe: does this host run a live process for ``loid``?

        Magistrates use it before recovery: a reply of False (or a
        delivery failure, the host itself being dead) licenses
        reactivation elsewhere; True means the earlier failure was
        transient and the recorded address still works.
        """
        entry = self.processes.find(loid)
        return entry is not None and not entry.crashed

    @legion_method("bytes CheckpointObject(LOID)")
    def checkpoint_object(self, loid: LOID) -> bytes:
        """SaveState() without teardown: the process keeps running.

        The magistrate stores the returned bytes as a recovery OPR, so a
        later host crash can reactivate the object from this point
        instead of losing state with the process.
        """
        entry = self.processes.get(loid)
        if entry.crashed:
            raise HostError(
                f"{loid} crashed on host {self.host_id}; nothing to checkpoint"
            )
        return entry.server.impl.save_state()

    # -------------------------------------------------------------------- reaping

    @legion_method("list Reap()")
    def reap(self, *, ctx: Optional[InvocationContext] = None):
        """Collect crashed processes; report exceptions to the magistrate.

        Returns the list of (LOID, exception string) pairs reaped.  Part
        of the Host Object's charter: "reaping objects, and reporting
        object exceptions" (section 2.3).
        """
        reaped = []
        for entry in self.processes.crashed_entries():
            self.processes.remove(entry.loid)
            reaped.append((entry.loid, entry.exception))
        if reaped and self.magistrate is not None:
            env = ctx.nested_env(self.loid) if ctx else self.own_env()
            yield from self.runtime.invoke(
                self.magistrate, "ReportExceptions", self.loid, reaped, env=env
            )
        return reaped

    # -------------------------------------------------------------- failure injection

    def crash_object(self, loid: LOID, reason: str = "simulated crash") -> None:
        """Test hook: the process dies abnormally (endpoint vanishes).

        Not a Legion member function -- this is the simulated hardware
        fault that reaping and stale-binding experiments inject.
        """
        entry = self.processes.get(loid)
        entry.server.deactivate()
        self.processes.mark_crashed(entry, reason)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} host={self.host_id} "
            f"procs={len(self.processes)}>"
        )
