"""Call-path compilation: per-configuration dispatch pipelines.

The invoke/dispatch hot path accreted per-call feature guards as the
subsystems landed: flow admission, credit windows, request batching,
causal tracing, retry-token buckets, autoscale sampling.  Every one of
them is off in the default configuration, yet every call still paid the
branch tax of asking -- ``tracer is not None and tracer.active``, ``flow
is None``, ``admission is not None``, ``type(payload) is
BatchInvocation`` -- several times per message.

This module moves those questions from *call time* to *configuration
time*.  For each ``(runtime | server, FlowConfig, tracer, policy)``
configuration it compiles a flat pipeline -- concretely, it selects a
specialised entry function containing only the stages the configuration
enables -- so a disabled feature costs exactly zero instructions on the
hot path:

* the **invoke path** of :class:`~repro.core.runtime.LegionRuntime`
  compiles to a single flat generator for the zero-middleware
  configuration (no tracer installed, no flow config): cached-binding
  lookup, one request, one reply, unwrap.  Any deviation -- cache miss,
  multi-element address, a failure needing the retry machinery -- falls
  through to the general loop, which remains the single source of truth
  for retry/refresh/backoff semantics;
* the **dispatch path** of :class:`~repro.core.server.ObjectServer`
  compiles to one of four request handlers: admission-controlled,
  flow-aware (batch unpacking), traced, or the bare
  ``in_flight``/metrics/execute chain.

Recompilation is driven by a monotonic *epoch* counter on
:class:`~repro.core.context.SystemServices`: assigning ``tracer`` or
``flow`` bumps ``callpath_epoch``, and every compiled path carries the
epoch it was built at.  The entry functions compare epochs (one integer
compare) at the top of each call/dispatch and rebuild lazily when stale,
so ``enable_tracing``/``disable_tracing`` and test-style ``services.flow
= FlowConfig(...)`` assignments take effect exactly as they did when the
guards were evaluated per call.  Runtime-local configuration that the
pipeline keys on (``enable_batching``) recompiles eagerly.

The compiled behaviour is bit-identical to the guard-per-call behaviour:
the same messages, the same kernel events, the same counters, in the
same order.  ``tests/core/test_callpath.py`` pins both the recompile
triggers and a full fast-path-vs-general-path equivalence run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


@dataclass(frozen=True)
class InvokePathKey:
    """The configuration fingerprint of one runtime's compiled invoke path."""

    #: A SpanRecorder is installed (spans may be recorded; the recorder's
    #: own ``active`` flag is still honoured inside the traced path).
    traced: bool
    #: A FlowConfig is installed on this runtime (deadline/priority
    #: stamping, credit windows, batching all hang off it).
    flow: bool
    #: Caller-side credit windows are enabled.
    credits: bool
    #: A RequestBatcher exists (methods may still opt in later).
    batching: bool
    #: A replication directory with locality-aware selection is installed
    #: (repro.replication).  Orthogonal to ``plain``: the fast path only
    #: ever fires for single-element bindings, and multi-element groups --
    #: the only addresses selection can reorder -- always fall through to
    #: ``call_address``, so locality never invalidates the flat pipeline.
    locality: bool = False

    @property
    def plain(self) -> bool:
        """True when the zero-middleware fast path is valid."""
        return not (self.traced or self.flow)

    def stages(self) -> Tuple[str, ...]:
        """The enabled middleware stages, in pipeline order."""
        out = []
        if self.traced:
            out.append("tracing")
        if self.credits:
            out.append("credits")
        if self.batching:
            out.append("batching")
        if self.flow:
            out.append("flow")
        return tuple(out)


@dataclass(frozen=True)
class DispatchPathKey:
    """The configuration fingerprint of one server's compiled dispatch path."""

    #: Bounded admission queue in front of the dispatch loop.
    admission: bool
    #: A system-wide FlowConfig exists, so BatchInvocation payloads can
    #: arrive and must be unpacked.
    flow: bool
    #: A SpanRecorder is installed.
    traced: bool

    @property
    def plain(self) -> bool:
        """True when requests go straight to the bare execute chain."""
        return not (self.admission or self.flow or self.traced)


def invoke_path_key(runtime) -> InvokePathKey:
    """The key the runtime's invoke pipeline would compile under right now."""
    flow = runtime._flow
    replication = getattr(runtime.services, "replication", None)
    return InvokePathKey(
        traced=runtime.services.tracer is not None,
        flow=flow is not None,
        credits=runtime.credits is not None,
        batching=runtime._batcher is not None,
        locality=replication is not None and replication.locality,
    )


def dispatch_path_key(server) -> DispatchPathKey:
    """The key the server's dispatch pipeline would compile under right now."""
    return DispatchPathKey(
        admission=server.admission is not None,
        flow=server.services.flow is not None,
        traced=server.services.tracer is not None,
    )


def compile_invoke_path(runtime) -> InvokePathKey:
    """(Re)build ``runtime``'s invoke pipeline for the current config.

    Sets ``runtime._plain_path`` (the fast-path validity flag the entry
    generator branches on once per call) and stamps the services epoch,
    so the next epoch mismatch -- and only that -- recompiles.
    """
    key = invoke_path_key(runtime)
    runtime._invoke_key = key
    runtime._plain_path = key.plain
    if key.locality:
        # One selector object per compile, shared by every call_address on
        # this runtime; ``order`` is a pure function of (src host, group).
        replication = runtime.services.replication
        runtime._replica_selector = replication.selector(
            runtime.services.network.latency
        )
    else:
        runtime._replica_selector = None
    runtime._callpath_epoch = runtime.services.callpath_epoch
    return key


def compile_dispatch_path(server) -> DispatchPathKey:
    """(Re)build ``server``'s request-dispatch pipeline.

    Selects the one handler the configuration needs and installs it as
    ``server._request_path``; the other stages simply do not exist on
    the compiled path.
    """
    key = dispatch_path_key(server)
    if key.admission:
        # Admission owns the whole intake (it understands batches too).
        path = server.admission.arrive
    elif key.flow:
        # No admission on this server, but batched payloads may arrive.
        path = server._dispatch_flow
    elif key.traced:
        path = server._dispatch_request
    else:
        path = server._dispatch_plain
    server._dispatch_key = key
    server._request_path = path
    server._dispatch_epoch = server.services.callpath_epoch
    return key
