"""LegionRuntime: the per-object Legion-aware communication layer.

"Since A is a Legion object, it contains a Legion-aware communication
layer which may implement a binding cache." (paper section 4.1.2)

Each active object owns one runtime.  The runtime:

* keeps the object's **binding cache** (first stop of every resolution;
  built on first use, since an object that only answers calls never
  resolves);
* knows the object's **Binding Agent** -- "the persistent state of each
  Legion object contains the Object Address of its Binding Agent"
  (section 3.6) -- and consults it on cache misses;
* detects **stale bindings** via DELIVERY_FAILURE notices (section 4.1.4),
  invalidates them, asks the agent for a refresh by passing the *stale
  binding itself* to GetBinding(binding), and retries;
* implements the **Object Address semantics** of section 3.4 on send:
  FIRST tries elements in order, ANY_RANDOM picks one, ALL fans out and
  gathers every reply, K_OF_N fans out and returns the first k.

All remote calls are generator-style: ``value = yield from rt.invoke(...)``
inside a simulation process.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import (
    BindingNotFound,
    DeliveryFailure,
    InvocationTimeout,
    Overloaded,
    PartitionedError,
)
from repro.core.method import MethodInvocation, MethodResult
from repro.flow.credits import CreditLedger
from repro.metrics.counters import Counters
from repro.naming.binding import Binding
from repro.naming.cache import BindingCache
from repro.naming.loid import LOID
from repro.net.address import AddressSemantic, ObjectAddress, ObjectAddressElement
from repro.net.message import Message, MessageKind, Undeliverable, correlation_ids
from repro.security.environment import CallEnvironment
from repro.simkernel.futures import SimFuture, gather, k_of, single_flight
from repro.simkernel.kernel import SimKernel, Timeout

#: Multiplier applied to the backoff per further attempt (exponential).
BACKOFF_FACTOR = 2.0

#: Deadline applied to every request that does not set its own (in
#: simulated ms).  Far above any legitimate round trip (WAN RTT is ~80 ms
#: and even activation chains finish well under a second), so it never
#: fires spuriously; its job is turning silently lost messages into
#: InvocationTimeout (and thence refresh/retry) instead of a hang.  Kept
#: modest because timeouts nest across hops.
DEFAULT_INVOCATION_TIMEOUT = 2_000.0


@dataclass(frozen=True)
class RetryPolicy:
    """How ``invoke`` spends its failure budget (attempts, backoff, deadline).

    The default policy reproduces the pre-policy behaviour exactly: four
    attempts back-to-back (no backoff, no jitter, no per-call budget),
    partitions raised immediately, resolution failures fatal.  Chaos-facing
    callers install a patient policy (backoff + jitter + budget +
    ``retry_unreachable``) so calls ride out whole-host crashes and timed
    partitions while recovery runs underneath them.

    Frozen so policies can be shared between runtimes and compared by value.
    """

    #: Total tries of the call itself (1 = no retry).
    max_attempts: int = 4
    #: Delay before the *second* attempt (then times BACKOFF_FACTOR per
    #: further attempt); 0 disables backoff entirely.
    base_backoff: float = 0.0
    #: Ceiling on any single backoff delay.
    max_backoff: float = 1_000.0
    #: Fractional jitter: delay is scaled by 1 + jitter*U(-1, 1) from the
    #: seeded "retry-backoff" RNG stream, so runs stay bit-identical.
    jitter: float = 0.0
    #: Wall (simulated) time budget for the whole invoke, measured from the
    #: first attempt; None = unlimited.  A retry whose backoff would land
    #: past the budget is not attempted (counts as an exhausted budget).
    budget: Optional[float] = None
    #: Ride out unreachable destinations instead of raising on the spot:
    #: treat PartitionedError like any delivery failure and retry (waiting
    #: out a heal), and keep retrying with the old binding when a refresh
    #: comes back BindingNotFound (e.g. the recovery control path is itself
    #: cut off by a partition).
    retry_unreachable: bool = False
    #: Per-runtime global retry *token bucket*: every attempt after the
    #: first spends one token; a dry bucket stops the retry loop
    #: (stats.retry_denied), so N concurrent invokes cannot multiply
    #: offered load during an outage.  None = unlimited (the historical
    #: behaviour).
    retry_tokens: Optional[float] = None
    #: Bucket refill rate in tokens per simulated ms (0 = no refill).
    retry_token_refill: float = 0.0

    def backoff_delay(self, attempt: int, rng) -> float:
        """Delay to sleep before ``attempt`` (2-based; attempt 1 never waits)."""
        if attempt <= 1 or self.base_backoff <= 0.0:
            return 0.0
        delay = min(
            self.base_backoff * BACKOFF_FACTOR ** (attempt - 2),
            self.max_backoff,
        )
        if self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


#: A read-only empty map: the starting value of each per-runtime table
#: that most runtimes never write; the first write puts a dict in its place.
_EMPTY: Mapping[Any, Any] = MappingProxyType({})

#: What a runtime's ``_cache_capacity`` reads once its cache is built.
_BUILT: Any = object()


class _BuiltOnFirstRead:
    """``LegionRuntime.cache`` until a runtime's first read of it.

    An object that only answers calls never resolves a binding, so a
    runtime starts with no :class:`BindingCache`.  The first read builds
    one, seeded from the permanent bindings exactly as an eager seed
    would have left it (same entries, same LRU order, same counters), and
    stores it on the instance, where every later read finds it first.  A
    non-data descriptor on the class, not a ``__getattr__`` (which would
    unspecialise every attribute load of a runtime) and not a stand-in
    object holding its runtime (a cycle for every process).
    """

    def __get__(self, runtime: Optional["LegionRuntime"], owner: type) -> Any:
        if runtime is None:
            return self
        cache = runtime.cache = BindingCache(capacity=runtime._cache_capacity)
        runtime._cache_capacity = _BUILT
        cache.insert_all(runtime._permanent)
        return cache


#: The compatibility policy: identical semantics to the historical
#: MAX_REFRESH_ATTEMPTS loop (see that constant's docstring).
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(slots=True)
class RuntimeStats(Counters):
    """Per-object communication statistics (feed the experiments).

    When ``_pending`` is empty the request-plane counters reconcile::

        requests_sent == replies_received + timeouts
                         + delivery_failures + cancelled + shed

    -- every request settles exactly one way; :attr:`LegionRuntime.settled`
    is that test, and the property test pins it.
    """

    invocations: int = 0
    requests_sent: int = 0
    replies_received: int = 0
    stale_detected: int = 0
    refreshes: int = 0
    timeouts: int = 0
    agent_lookups: int = 0
    #: Call attempts made by invoke() (== invocations when nothing retries).
    attempts: int = 0
    #: Successful re-resolutions after a stale binding was invalidated.
    rebinds: int = 0
    #: Invokes abandoned because the next backoff overran policy.budget.
    budget_exhausted: int = 0
    #: Requests settled by a DELIVERY_FAILURE notice.
    delivery_failures: int = 0
    #: Requests failed by fail_pending (teardown/migration).
    cancelled: int = 0
    #: Requests settled by an Overloaded reply (admission-control shed).
    shed: int = 0
    #: Retries the global retry token bucket refused to fund.
    retry_denied: int = 0
    #: Sends that had to park on an exhausted credit window first.
    credit_waits: int = 0


class LegionRuntime:
    """The communication layer of one active Legion object."""

    #: How many stale-binding refresh cycles invoke() tolerates before
    #: giving up with BindingNotFound.  Kept small because refreshes can
    #: nest (a refresh's own requests may retry): depth-k call chains cost
    #: up to (MAX_REFRESH_ATTEMPTS+1)^k attempts in the worst case.
    MAX_REFRESH_ATTEMPTS = 3

    #: The object's binding cache, built on first read.
    cache: BindingCache = _BuiltOnFirstRead()  # type: ignore[assignment]

    def __init__(
        self,
        services,
        loid: LOID,
        element: ObjectAddressElement,
        cache_capacity: Optional[int] = 128,
    ) -> None:
        self.services = services
        self.kernel: SimKernel = services.kernel
        self.loid = loid
        self.element = element
        #: Capacity of the binding cache it builds on first use; ``_BUILT``
        #: after (reading ``vars(self)`` would give every runtime a dict).
        self._cache_capacity = cache_capacity
        self.stats = RuntimeStats()
        #: The object's Binding Agent (LOID + address), per section 3.6.
        self.binding_agent: Optional[Binding] = None
        #: Per-request deadline when messages can be silently dropped.
        self.default_timeout: Optional[float] = DEFAULT_INVOCATION_TIMEOUT
        #: How invoke() spends its failure budget; swap per-object for
        #: chaos-tolerant callers.  The default reproduces the historical
        #: refresh loop bit-for-bit.
        self.retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY
        #: (loid identity, stale address) → in-flight refresh future.  N
        #: concurrent invokes sharing one dead address coalesce onto a
        #: single GetBinding(stale) instead of storming the agent.
        self._refreshing: Dict[tuple, SimFuture] = _EMPTY  # type: ignore[assignment]
        self._pending: Dict[int, SimFuture] = {}
        #: The environment of every call chain this object originates
        #: (immutable, so one instance serves them all).
        self._origin_env = CallEnvironment.originating(loid)
        #: Metrics-style "kind:name" label used on spans this runtime
        #: records; the owning ObjectServer sets it to its ComponentId's
        #: label so traces and counters share a vocabulary.
        self.component_label = ""
        #: correlation id → open "request" span (only populated while a
        #: tracer is installed; stays empty -- one truthiness test -- otherwise).
        self._request_spans: Dict[int, Any] = _EMPTY  # type: ignore[assignment]
        #: Non-evictable well-known bindings (the core objects).  A
        #: transient failure (e.g. a partition) may invalidate the cached
        #: copy, but resolution falls back here, so connectivity loss is
        #: never promoted into permanent amnesia about the core objects.
        #: Held by reference and never mutated: an application object
        #: shares the system's one ``services.core_seed`` table.
        self._permanent: Dict[tuple, Binding] = _EMPTY  # type: ignore[assignment]
        #: The flow-control configuration (repro.flow), or None.  Every
        #: flow feature below guards on it so the default costs nothing.
        flow = services.flow
        self._flow = flow
        #: Caller-side credit windows (credit-based backpressure).
        self.credits: Optional[CreditLedger] = (
            CreditLedger(flow.credit_window)
            if flow is not None and flow.credit_window is not None
            else None
        )
        #: Global retry token bucket (None until first use; see
        #: RetryPolicy.retry_tokens).
        self._retry_bucket: Optional[float] = None
        self._retry_bucket_at = 0.0

    # ------------------------------------------------------------------ wiring

    @property
    def pending_count(self) -> int:
        """Outstanding requests awaiting replies (client-side queue depth)."""
        return len(self._pending)

    @property
    def settled(self) -> bool:
        """The :class:`RuntimeStats` settlement identity: nothing pending
        and every request sent has settled exactly one way."""
        s = self.stats
        return not self._pending and s.requests_sent == (
            s.replies_received + s.timeouts + s.delivery_failures + s.cancelled + s.shed
        )

    def set_binding_agent(self, agent: Binding) -> None:
        """Install the Binding Agent this object consults on cache misses."""
        self.binding_agent = agent

    def seed_binding(self, binding: Binding) -> None:
        """Pre-load the cache (AddBinding-style propagation)."""
        self.cache.insert(binding)

    def seed_permanent(self, bindings: Dict[tuple, Binding]) -> None:
        """Pre-load well-known bindings (identity → Binding, in order)
        that survive any invalidation: the core class objects.

        ``bindings`` is kept by reference, not copied; the caller must not
        mutate it afterwards.  The first seed of an unbuilt cache waits
        for the cache's first use.
        """
        permanent = self._permanent
        if permanent or self._cache_capacity is _BUILT:
            self.cache.insert_all(bindings)
            bindings = {**permanent, **bindings}
        self._permanent = bindings

    def lookup_binding(self, loid: LOID) -> Optional[Binding]:
        """Cache lookup with fallback to the permanent well-known seeds."""
        binding = self.cache.lookup(loid, self.kernel.now)
        if binding is None:
            binding = self._permanent.get(loid.identity)
            if binding is not None:
                self.cache.insert(binding)
        return binding

    def _take_retry_token(self) -> bool:
        """Spend one global retry token; False (and counted) when dry."""
        policy = self.retry_policy
        cap = policy.retry_tokens
        if cap is None:
            return True
        now = self.kernel.now
        if self._retry_bucket is None:
            self._retry_bucket = float(cap)
        elif policy.retry_token_refill > 0.0:
            refilled = self._retry_bucket + (
                (now - self._retry_bucket_at) * policy.retry_token_refill
            )
            self._retry_bucket = refilled if refilled < cap else float(cap)
        self._retry_bucket_at = now
        if self._retry_bucket >= 1.0:
            self._retry_bucket -= 1.0
            return True
        self.stats.retry_denied += 1
        return False

    # --------------------------------------------------------------- message in

    def handle_reply(self, message: Message) -> None:
        """Route an incoming REPLY to its waiting future."""
        fut = self._pending.pop(message.correlation_id, None)
        if self._request_spans:
            self._finish_request_span(message.correlation_id, "ok")
        if fut is None or fut._state != "pending":
            return  # late reply after timeout; drop
        payload = message.payload
        if type(payload) is MethodResult and payload.error_type == "Overloaded":
            # Admission-control shed: its own terminal state, not a reply
            # in the goodput sense and never a stale-binding signal.
            self.stats.shed += 1
        else:
            self.stats.replies_received += 1
        fut.set_result(payload)

    def handle_delivery_failure(self, message: Message) -> None:
        """Route a DELIVERY_FAILURE notice to its waiting future."""
        fut = self._pending.pop(message.correlation_id, None)
        if self._request_spans:
            self._finish_request_span(message.correlation_id, "delivery-failure")
        if fut is None or fut._state != "pending":
            return
        self.stats.delivery_failures += 1
        reason: Undeliverable = message.payload
        exc_type = (
            PartitionedError if reason is Undeliverable.PARTITION else DeliveryFailure
        )
        # ``_value_`` is the member's plain attribute; ``.value`` is a
        # descriptor that costs two Python calls per bounce.
        fut.set_exception(
            exc_type(
                f"delivery to {message.source} failed: {reason._value_}",
                element=message.source,
            )
        )

    def _expire(
        self,
        correlation_id: int,
        element: ObjectAddressElement,
        invocation: MethodInvocation,
        deadline: float,
    ) -> None:
        """The deadline of one request; the kernel runs it only while the
        request's future is pending, that is, while it is in ``_pending``."""
        pending = self._pending.pop(correlation_id)
        if self._request_spans:
            self._finish_request_span(correlation_id, "timeout")
        self.stats.timeouts += 1
        pending.set_exception(
            InvocationTimeout(
                f"no reply to {invocation} within {deadline}", element=element
            )
        )

    def _finish_request_span(self, correlation_id: int, status: str) -> None:
        span = self._request_spans.pop(correlation_id, None)
        if span is not None:
            tracer = self.services.tracer
            if tracer is not None:
                tracer.finish(span, status)

    # --------------------------------------------------------------- message out

    def send_request(
        self,
        element: ObjectAddressElement,
        invocation: MethodInvocation,
        timeout: Optional[float] = None,
    ) -> SimFuture:
        """Fire one REQUEST at one element; future resolves with MethodResult.

        The future fails with :class:`DeliveryFailure` on a stale element
        and with :class:`InvocationTimeout` if a deadline was set and no
        reply arrived in time.
        """
        # Message.request(self.element, element, invocation), minus its frame.
        message = Message(
            MessageKind.REQUEST, self.element, element, invocation, next(correlation_ids)
        )
        # The name is debugging metadata only; formatting the invocation
        # eagerly here would dominate the warm-call profile, so keep the
        # cheap constant part (errors still carry the full invocation).
        fut = SimFuture(invocation.method)
        self._pending[message.correlation_id] = fut
        self.stats.requests_sent += 1
        tracer = self.services.tracer
        if tracer is not None:
            link = self.services.network.latency.classify(
                self.element.host, element.host
            )
            span = tracer.start(
                "request " + invocation.method,
                "request",
                parent=invocation.env.trace,
                component=self.component_label,
                link=link.value,
            )
            message.trace = span.context
            if self._request_spans is _EMPTY:
                self._request_spans = {}
            self._request_spans[message.correlation_id] = span
        deadline = timeout if timeout is not None else self.default_timeout
        if deadline is not None:
            self.kernel.deadline(
                fut, deadline, self._expire,
                message.correlation_id, element, invocation, deadline,
            )
        self.services.network.send(message)
        return fut

    def send_event(self, element: ObjectAddressElement, payload: Any) -> None:
        """Fire-and-forget EVENT (exception reports, invalidation gossip);
        under a tracer it roots a fresh trace."""
        message = Message.event(self.element, element, payload)
        tracer = self.services.tracer
        if tracer is not None:
            span = tracer.instant(
                "event",
                "event",
                component=self.component_label,
                link=self.services.network.latency.classify(
                    self.element.host, element.host
                ).value,
            )
            message.trace = span.context
        self.services.network.send(message)

    # ----------------------------------------------------------------- calls

    def call_element(
        self,
        element: ObjectAddressElement,
        target: LOID,
        method: str,
        args: Tuple[Any, ...],
        env: CallEnvironment,
        timeout: Optional[float] = None,
        priority: int = 0,
    ):
        """Process-style call of one element; returns the unwrapped value."""
        invocation = self._invocation(target, method, args, env, timeout, priority)
        # No local names the future: a failed one holds its exception,
        # whose traceback holds this frame.
        if self.credits is None:
            result: MethodResult = yield self.send_request(element, invocation, timeout)
        else:
            result = yield (yield from self._credited_send(element, invocation, timeout))
        return result.unwrap()

    def _invocation(
        self, target, method, args, env, timeout, priority
    ) -> MethodInvocation:
        """The invocation to put on the wire; under a FlowConfig it also
        carries the flow metadata (absolute deadline, priority)."""
        if self._flow is None:
            return tuple.__new__(MethodInvocation, (target, method, args, env, 0, None))
        deadline = timeout if timeout is not None else self.default_timeout
        return tuple.__new__(
            MethodInvocation,
            (
                target,
                method,
                args,
                env,
                priority,
                None if deadline is None else self.kernel.now + deadline,
            ),
        )

    def _credited_send(self, element, invocation: MethodInvocation, timeout):
        """send_request once the element's credit window has room.

        Returns the wire future (not its result), so a fan-out can fire
        every leg before gathering.  Any settlement of that future --
        reply, shed, failure, timeout, cancellation -- releases the
        credit exactly once.
        """
        window = self.credits.window(invocation.target.identity, element)
        waiter = window.try_acquire()
        if waiter is not None:
            self.stats.credit_waits += 1
            tracer = self.services.tracer
            if tracer is not None:
                tracer.instant(
                    "credit-wait " + invocation.method,
                    "credit",
                    parent=invocation.env.trace,
                    component=self.component_label,
                    window=window.capacity,
                )
            yield waiter
        fut = self.send_request(element, invocation, timeout)
        fut.add_done_callback(window.release)
        return fut

    def call_address(
        self,
        address: ObjectAddress,
        target: LOID,
        method: str,
        args: Tuple[Any, ...],
        env: CallEnvironment,
        timeout: Optional[float] = None,
        priority: int = 0,
    ):
        """Semantics-aware call of a (possibly replicated) Object Address.

        Returns a single value for FIRST/ANY_RANDOM, a list of all values
        for ALL, and a list of k values for K_OF_N.  Raises
        :class:`DeliveryFailure` when the semantic cannot be satisfied
        (e.g. every element of a FIRST list is stale).
        """
        semantic = address.semantic
        if semantic is AddressSemantic.FIRST:
            elements = address.elements
            replication = self.services.replication
            if replication is not None and len(elements) > 1:
                # Locality-aware selection (repro.replication): try the
                # group nearest-first by link class from *this* caller's
                # host.  The sort is stable, so equally-near replicas keep
                # their group order and the schedule stays deterministic.
                elements = replication.nearest_first(
                    self.services.network.latency, self.element.host, elements
                )
            last_error: Optional[BaseException] = None
            try:
                for element in elements:
                    try:
                        value = yield from self.call_element(
                            element, target, method, args, env, timeout, priority
                        )
                        return value
                    except DeliveryFailure as exc:
                        last_error = exc
                assert last_error is not None
                raise last_error
            finally:
                # A caught error's traceback holds this frame: keeping it
                # in a local past the exit would make a cycle.
                last_error = None
        if semantic is AddressSemantic.ANY_RANDOM:
            rng = self.services.rng.stream("address-any-random")
            (element,) = address.targets(rng)
            value = yield from self.call_element(
                element, target, method, args, env, timeout, priority
            )
            return value
        # Fan-out.  Under credit windows each element's credit is acquired
        # (possibly waiting) before its leg fires, sequentially in element
        # order so the acquisition schedule is deterministic.
        invocation = self._invocation(target, method, args, env, timeout, priority)
        invocation_futs = []
        for element in address.elements:
            if self.credits is None:
                fut = self.send_request(element, invocation, timeout)
            else:
                fut = yield from self._credited_send(element, invocation, timeout)
            invocation_futs.append(fut)
        if semantic is AddressSemantic.ALL:
            results: List[MethodResult] = yield gather(invocation_futs)
            return [r.unwrap() for r in results]
        # K_OF_N
        indexed = yield k_of(invocation_futs, address.k)
        return [r.unwrap() for _i, r in indexed]

    # -------------------------------------------------------------- resolution

    def resolve(self, loid: LOID, trace: Any = None):
        """Produce a Binding for ``loid``: local cache, then Binding Agent.

        This is exactly the start of the paper's section 4.1.2 walk; the
        *agent* performs any deeper search (other agents, the class, the
        magistrate).  Raises :class:`BindingNotFound` when no agent is
        configured and the cache misses.  ``trace`` optionally parents
        the resolution's span (the caller's invoke span).
        """
        cached = self.lookup_binding(loid)
        tracer = self.services.tracer
        traced = tracer is not None
        if cached is not None:
            if traced:
                tracer.instant(
                    "resolve",
                    "resolve",
                    parent=trace,
                    component=self.component_label,
                    cache="hit",
                )
            return cached
        span = None
        if traced:
            span = tracer.start(
                "resolve", "resolve", parent=trace, component=self.component_label
            )
            span.annotate(cache="miss")
            trace = span.context
        try:
            binding = yield from self._agent_get_binding(loid, trace=trace)
        except BaseException as exc:
            if span is not None:
                span.status = type(exc).__name__
            raise
        finally:
            if span is not None:
                tracer.finish(span)
        self.cache.insert(binding)
        return binding

    def _agent_get_binding(self, query, trace: Any = None):
        """GetBinding(LOID) or GetBinding(binding) on our Binding Agent."""
        agent = self.binding_agent
        if agent is None:
            if isinstance(query, Binding):
                raise BindingNotFound(
                    f"stale binding for {query.loid} and no Binding Agent configured",
                    loid=query.loid,
                )
            raise BindingNotFound(
                f"no cached binding for {query} and no Binding Agent configured",
                loid=query,
            )
        self.stats.agent_lookups += 1
        env = self._origin_env
        if trace is not None:
            env = env.with_trace(trace)
        binding = yield from self.call_address(
            agent.address, agent.loid, "GetBinding", (query,), env
        )
        if binding is None:
            loid = query.loid if isinstance(query, Binding) else query
            raise BindingNotFound(f"Binding Agent found no binding for {loid}", loid=loid)
        return binding

    def _refresh_binding(self, stale: Binding, trace: Any = None):
        """GetBinding(stale) with per-(loid, address) coalescing.

        When N in-flight calls share one dead address, the first failure
        starts the refresh and the other N-1 ride its future -- one
        GetBinding on the wire, one cache insert, no refresh storm.
        """
        key = (stale.loid.identity, stale.address)
        if self._refreshing is _EMPTY:
            self._refreshing = {}
        return single_flight(self._refreshing, key, "refresh", self._refresh(stale, trace))

    def _refresh(self, stale: Binding, trace: Any):
        self.stats.refreshes += 1
        binding = yield from self._agent_get_binding(stale, trace=trace)
        self.cache.insert(binding)
        return binding

    # ------------------------------------------------------------------- invoke

    def invoke(
        self,
        target: LOID,
        method: str,
        *args: Any,
        env: Optional[CallEnvironment] = None,
        timeout: Optional[float] = None,
        priority: int = 0,
    ):
        """The full non-blocking method invocation path (section 4.1).

        Resolution, call, stale detection, refresh, retry::

            result = yield from runtime.invoke(loid, "Ping")

        ``env`` defaults to a fresh environment rooted at this object;
        nested calls inside a server method should pass
        ``ctx.nested_env(self.loid)`` instead to preserve the Responsible
        Agent across hops.

        One body serves every configuration, and everything it decides it
        decides when the call *runs* (a spawned invoke may start many
        events after the spawn, across a config change): a span is opened
        iff a tracer is installed, and an attempt on a single-element FIRST
        binding with no FlowConfig installed puts its one request on the
        wire from this frame -- :meth:`call_address` would do exactly that
        two generators deeper.
        """
        stats = self.stats
        stats.invocations += 1
        if env is None:
            env = self._origin_env
        # One probe up front keeps a warm call out of resolve() altogether.
        # On a miss resolve() probes again before it asks the agent: the
        # ledger's expected.json pins that second lookup in every sim
        # digest, so it stays until the baseline is re-cut.
        binding = self.lookup_binding(target)
        tracer = self.services.tracer
        span = None
        if tracer is not None:
            # The logical operation's span: roots a fresh trace at a call
            # chain's origin, or nests under the server dispatch span the
            # caller's environment carries (ctx.nested_env propagation).
            span = tracer.start(
                "invoke " + method,
                "invoke",
                parent=env.trace,
                component=self.component_label,
            )
            span.annotate(target=str(target))
            env = env.with_trace(span.context)
            if binding is not None:
                tracer.instant(
                    "resolve",
                    "resolve",
                    parent=env.trace,
                    component=self.component_label,
                    cache="hit",
                )
        policy = self.retry_policy
        started = self.kernel.now
        last_error: Optional[BaseException] = None
        pushback = 0.0
        try:
            attempt = 0
            while attempt < policy.max_attempts:  # no range object per call
                attempt += 1
                if attempt > 1:
                    if not self._take_retry_token():
                        break
                    delay = policy.backoff_delay(
                        attempt, self.services.rng.stream("retry-backoff")
                    )
                    if pushback > 0.0:
                        # The server told us when admission is plausible;
                        # hammering the queue any earlier is wasted wire.
                        if delay < pushback:
                            delay = pushback
                        pushback = 0.0
                    if (
                        policy.budget is not None
                        and self.kernel.now - started + delay >= policy.budget
                    ):
                        stats.budget_exhausted += 1
                        break
                    if delay > 0.0:
                        if span is not None:
                            tracer.instant(
                                "retry-backoff",
                                "retry",
                                parent=env.trace,
                                component=self.component_label,
                                attempt=attempt,
                                delay=round(delay, 3),
                            )
                        yield Timeout(delay)
                stats.attempts += 1
                if binding is None:
                    # Resolution is part of the attempt: the walk to the
                    # agent (and onward to the class) crosses the same
                    # faulty network the call does, so a patient policy
                    # retries its partitions and losses under the same
                    # backoff/budget instead of leaking them to the caller.
                    try:
                        binding = yield from self.resolve(target, trace=env.trace)
                    except Overloaded as exc:
                        # The resolution path itself (agent or class) shed
                        # us; always retryable, paced by its pushback hint.
                        last_error = exc
                        pushback = exc.retry_after
                        continue
                    except (DeliveryFailure, BindingNotFound) as exc:
                        # PartitionedError included: the walk could not
                        # get through.
                        if not policy.retry_unreachable:
                            raise
                        last_error = exc
                        continue
                try:
                    address = binding.address
                    if (
                        self._flow is None
                        and address.semantic is AddressSemantic.FIRST
                        and len(address.elements) == 1
                    ):
                        result: MethodResult = yield self.send_request(
                            address.elements[0],
                            tuple.__new__(
                                MethodInvocation, (target, method, args, env, 0, None)
                            ),
                            timeout,
                        )
                        value = result.unwrap()
                    else:
                        value = yield from self.call_address(
                            address, target, method, args, env, timeout, priority
                        )
                    if span is not None and attempt > 1:
                        span.annotate(attempts=attempt)
                    return value
                except Overloaded as exc:
                    # Admission-control shed: the binding is *not* stale.
                    # No invalidate, no refresh, no rebind -- just wait out
                    # the server's retry_after hint and try again.
                    last_error = exc
                    pushback = exc.retry_after
                except PartitionedError as exc:
                    # The destination's site is unreachable; a refreshed
                    # binding cannot help until the partition heals, and
                    # retrying through intermediaries just multiplies
                    # traffic.  A patient policy instead backs off and
                    # waits the heal out.
                    stats.stale_detected += 1
                    if not policy.retry_unreachable:
                        raise
                    last_error = exc
                except DeliveryFailure as exc:
                    # Stale binding (4.1.4): drop it and ask for a refresh,
                    # passing the stale binding so the agent knows not to
                    # hand back its own identical cached copy.
                    stats.stale_detected += 1
                    self.cache.invalidate_exact(binding)
                    last_error = exc
                    try:
                        binding = yield from self._refresh_binding(
                            binding, trace=env.trace
                        )
                        stats.rebinds += 1
                    except BindingNotFound as missing:
                        # The agent (or the recovery path behind it) found
                        # nothing.  Usually fatal; a patient policy keeps
                        # the old binding and retries -- recovery may still
                        # be running, or the control path may be
                        # partitioned.
                        if not policy.retry_unreachable:
                            raise missing from exc
                        last_error = missing
                    except DeliveryFailure:
                        # The refresh leg itself was lost (a lossy network,
                        # not a stale binding).  Keep the old binding and
                        # let the retry budget govern: the next attempt may
                        # get through, and a genuinely dead address will
                        # exhaust the attempts into BindingNotFound below.
                        pass
            if isinstance(last_error, (PartitionedError, Overloaded)):
                raise last_error
            raise BindingNotFound(
                f"could not reach {target} after {policy.max_attempts} attempts",
                loid=target,
            ) from last_error
        except BaseException as exc:
            if span is not None:
                span.status = type(exc).__name__
            raise
        finally:
            # Every caught error's traceback holds this frame; a local
            # still naming one on exit would make a cycle.
            last_error = None
            if span is not None:
                tracer.finish(span)

    # ---------------------------------------------------------------- teardown

    def fail_pending(self, reason: str) -> None:
        """Fail all in-flight calls (object deactivating or migrating).

        Settling each call's future also retires its deadline: the kernel
        never runs a deadline whose future has settled.
        """
        if not self._pending:
            return
        pending, self._pending = self._pending, {}
        for corr, fut in pending.items():
            if self._request_spans:
                self._finish_request_span(corr, "cancelled")
            if not fut.done():
                self.stats.cancelled += 1
                fut.set_exception(DeliveryFailure(f"runtime torn down: {reason}"))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LegionRuntime {self.loid} @{self.element} pending={len(self._pending)}>"
