"""ObjectServer: hosts one implementation at a network endpoint.

The server is the simulated analogue of the process a Legion object runs
in while Active (paper section 3.1).  It owns the endpoint, the runtime,
and the dispatch loop:

* REQUEST messages are dispatched to exported methods.  "Method calls are
  non-blocking and may be accepted in any order" (section 2): each
  invocation runs as its own simulation process, so a slow method never
  blocks later arrivals.
* Before anything runs, the object's MayI() policy is consulted
  (section 2.4); refusals return SecurityDenied to the caller.
* REPLY / DELIVERY_FAILURE messages are routed to the runtime's pending
  futures.
* EVENT messages go to the implementation's ``handle_event`` hook.

Every REQUEST also bumps the object's component counter in the metrics
registry -- the raw data of the Section 5 scalability experiments.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Optional

from repro.errors import LegionError, MethodNotFound, Overloaded, SecurityDenied
from repro.core.method import InvocationContext, MethodInvocation, MethodResult
from repro.core.object_base import LegionObjectImpl
from repro.core.runtime import LegionRuntime
from repro.flow.admission import AdmissionController
from repro.metrics.counters import ComponentId, ComponentKind, MetricsRegistry
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress
from repro.net.message import Message, MessageKind


class ObjectServer:
    """One active Legion object: implementation + endpoint + runtime."""

    def __init__(
        self,
        services,
        loid: LOID,
        impl: LegionObjectImpl,
        host: int,
        node: int = 0,
        component_kind: ComponentKind = ComponentKind.APPLICATION,
        component_name: str = "",
        cache_capacity: Optional[int] = 128,
    ) -> None:
        self.services = services
        self.loid = loid
        self.impl = impl
        self.host = host
        self.element = services.network.allocate_element(host, node)
        #: This server's single-element Object Address, built once.
        self.address = ObjectAddress.single(self.element)
        self.runtime = LegionRuntime(services, loid, self.element, cache_capacity)
        name = component_name or str(loid)
        self.component = ComponentId(component_kind, name)
        #: Pre-rendered span label, ``str(self.component)`` formatted here
        #: once; shared with the runtime so client-side (request) and
        #: server-side (handle) spans name components alike.
        self._component_label = f"{component_kind._value_}:{name}"
        self.runtime.component_label = self._component_label
        services.network.register(self.element, self.handle_message)
        self.active = True
        #: Requests dispatched but not yet replied to -- the server-side
        #: queue depth the autoscaler's LoadMonitor samples.
        self.in_flight = 0
        #: Bounded admission queue (repro.flow) under the system-wide
        #: ``services.flow`` config, or None for the historical
        #: accept-everything behaviour.
        flow_config = services.flow
        self.admission = (
            AdmissionController(self, flow_config)
            if flow_config is not None and flow_config.admits(component_kind)
            else None
        )
        # Seed the runtime: well-known core bindings (a core object leaves
        # out its own; the cores themselves start before the table is
        # complete and bootstrap seeds them afterwards) plus the system's
        # default Binding Agent (creators may override either afterwards).
        identity = loid.identity
        seed = services.core_seed
        if identity in seed:
            seed = {key: binding for key, binding in seed.items() if key != identity}
        self.runtime.seed_permanent(seed)
        agent = services.default_binding_agent
        if agent is not None and agent.loid.identity != identity:
            self.runtime.binding_agent = agent
        # Wire the implementation.  It gets no pointer back to this
        # server: the server owns it, and a back-pointer would leave every
        # retired process in a cycle for the collector.
        impl.loid = loid
        impl.runtime = self.runtime
        impl.services = services
        impl.on_activated()

    # ------------------------------------------------------------------ address

    def binding(self) -> Binding:
        """A never-expiring Binding for this server's LOID and address."""
        return Binding(self.loid, self.address)

    # ----------------------------------------------------------------- dispatch

    def handle_message(self, message: Message) -> None:
        """The endpoint handler: route by message kind."""
        if message.kind is MessageKind.REQUEST:
            if self.admission is not None:
                # Admission owns the whole intake; what it admits comes
                # back through _dispatch, now or when a slot frees up.
                self.admission.arrive(message)
            else:
                self._dispatch(message)
            return
        if message.kind is MessageKind.REPLY:
            self.runtime.handle_reply(message)
            return
        if message.kind is MessageKind.DELIVERY_FAILURE:
            self.runtime.handle_delivery_failure(message)
            return
        # EVENT
        tracer = self.services.tracer
        if tracer is not None:
            tracer.instant(
                "deliver event",
                "event",
                parent=message.trace,
                component=self._component_label,
            )
        self.impl.handle_event(message.payload, message.source)

    def _dispatch(self, request: Message) -> None:
        """Run one (admitted) REQUEST; ``_reply`` to it exactly once.

        One frame per request: MayI, export lookup, run, reply.  MayI is
        asked of the impl's ``mayi_policy`` as it stands now, so a policy
        swapped on a live impl refuses the very next request.
        """
        invocation: MethodInvocation = request.payload
        self.in_flight += 1
        services = self.services
        services.metrics.incr(self.component, MetricsRegistry.REQUESTS)
        tracer = services.tracer
        span = None
        env = invocation.env
        if tracer is not None:
            # The server-side dispatch span.  Nested calls the method makes
            # flow through ctx.nested_env, whose environment carries this
            # span's context -- so the whole downstream subtree hangs here.
            span = tracer.start(
                "handle " + invocation.method,
                "handle",
                parent=request.trace,
                component=self._component_label,
            )
            env = env.with_trace(span.context)
        impl = self.impl
        method = invocation.method
        args = invocation.args
        try:
            if not impl.mayi_policy.may_i(method, invocation.env):
                raise SecurityDenied(
                    f"{self.loid} refused {method} for {invocation.env.calling_agent}"
                )
            export = impl.find_export(method, len(args))
            if export is None:
                raise MethodNotFound(f"{self.loid} exports no {method}/{len(args)}")
        except LegionError as exc:
            if span is not None:
                tracer.finish(span, type(exc).__name__)
            self._reply(request, MethodResult.failure(exc))
            return

        try:
            if export.wants_ctx:
                outcome = export.fn(
                    impl, *args, ctx=InvocationContext(env, invocation.target, method)
                )
            else:
                outcome = export.fn(impl, *args)
        except Exception as exc:  # noqa: BLE001 - marshalled to caller
            if span is not None:
                tracer.finish(span, type(exc).__name__)
            self._reply(request, MethodResult.failure(exc))
            return

        if type(outcome) is GeneratorType:
            # Long-running method: its own process; reply when it returns.
            proc = services.kernel.spawn(outcome, name=method)

            def _finish(proc) -> None:
                exc = proc._exception
                if span is not None:
                    tracer.finish(span, "ok" if exc is None else type(exc).__name__)
                if exc is None:
                    result = tuple.__new__(MethodResult, (proc._result, "", "", None))
                    self._reply(request, result)
                else:
                    self._reply(request, MethodResult.failure(exc))

            proc._cb = _finish  # a fresh process's one callback slot
        else:
            if span is not None:
                tracer.finish(span)
            self._reply(request, tuple.__new__(MethodResult, (outcome, "", "", None)))

    def _reply(self, request: Message, result: MethodResult) -> None:
        if self.in_flight > 0:
            self.in_flight -= 1
        if self.active:
            # request.reply_with(result), minus its frame.
            self.services.network.send(
                Message(
                    MessageKind.REPLY,
                    request.destination,
                    request.source,
                    result,
                    request.correlation_id,
                    request.trace,
                )
            )
        # else: deactivated mid-method; caller will see a stale binding
        if self.admission is not None:
            self.admission.pump()

    def _shed_reply(self, request: Message, retry_after: float, reason: str) -> None:
        """Refuse ``request`` with Overloaded(retry_after); never dispatched.

        Counts the shed against the SHED metric, records the incident on
        the FaultLog and as a "shed" span, and replies without ever
        touching ``in_flight``.
        """
        payload = request.payload
        self.services.metrics.incr(self.component, MetricsRegistry.SHED)
        fault_log = self.services.fault_log
        if fault_log is not None:
            fault_log.observe(
                self.services.kernel.now, "request-shed", self._component_label, reason
            )
        tracer = self.services.tracer
        if tracer is not None:
            tracer.instant(
                "shed " + payload.method,
                "shed",
                parent=request.trace,
                component=self._component_label,
                reason=reason,
                retry_after=round(retry_after, 3),
            )
        if not self.active:
            return
        result = MethodResult.failure(
            Overloaded(
                f"{self.loid} shed {payload.method} ({reason})",
                retry_after=retry_after,
            )
        )
        self.services.network.send(request.reply_with(result))

    # ----------------------------------------------------------------- lifecycle

    def deactivate(self) -> None:
        """Tear the endpoint down (object going Inert or migrating).

        After this, messages to the old address produce DELIVERY_FAILURE
        at their senders -- the stale-binding signal of section 4.1.4.
        """
        if not self.active:
            return
        self.impl.on_deactivating()
        self.active = False
        self.services.network.unregister(self.element)
        self.runtime.fail_pending("deactivated")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.active else "inert"
        return f"<ObjectServer {self.loid} @{self.element} {state}>"
