"""Request batching: coalescing, fan-out replies, in_flight accuracy, shed."""

from __future__ import annotations

from repro.core.runtime import RetryPolicy
from repro.errors import Overloaded
from repro.flow.config import FlowConfig
from repro.metrics.counters import MetricsRegistry
from tests.core.conftest import EchoImpl, start_object

NO_RETRY = RetryPolicy(max_attempts=1)


def _pair(services):
    caller = start_object(services, EchoImpl("caller"), host=1)
    callee = start_object(services, EchoImpl("callee"), host=2)
    caller.runtime.seed_binding(callee.binding())
    callee.runtime.seed_binding(caller.binding())
    return caller, callee


def test_window_coalesces_calls_into_one_wire_message(services):
    services.flow = FlowConfig(batch_window=1.0, batch_limit=8)
    caller, callee = _pair(services)
    assert caller.runtime.enable_batching("Echo")
    kernel = services.kernel
    before = services.network.stats.messages_sent
    futs = [
        kernel.spawn(caller.runtime.invoke(callee.loid, "Echo", text))
        for text in ("a", "b", "c")
    ]
    kernel.run()
    # Three logical calls, two wire messages: one REQUEST, one REPLY.
    assert services.network.stats.messages_sent - before == 2
    assert [f.result() for f in futs] == ["callee:a", "callee:b", "callee:c"]
    batcher = caller.runtime._batcher
    assert batcher.batches_sent == 1
    assert batcher.calls_batched == 3
    stats = caller.runtime.stats
    assert stats.invocations == 3
    assert stats.requests_sent == 1
    assert stats.replies_received == 1


def test_batch_limit_flushes_early_and_singles_degrade(services):
    services.flow = FlowConfig(batch_window=5.0, batch_limit=2)
    caller, callee = _pair(services)
    assert caller.runtime.enable_batching("Echo")
    kernel = services.kernel
    before = services.network.stats.messages_sent
    futs = [
        kernel.spawn(caller.runtime.invoke(callee.loid, "Echo", text))
        for text in ("a", "b", "c")
    ]
    kernel.run()
    # a+b hit the limit and flush immediately; c waits out the window and
    # degrades to a plain request (no wrapper for a batch of one).
    assert [f.result() for f in futs] == ["callee:a", "callee:b", "callee:c"]
    assert services.network.stats.messages_sent - before == 4
    batcher = caller.runtime._batcher
    assert batcher.batches_sent == 1
    assert batcher.calls_batched == 2


def test_enable_batching_requires_a_window(services):
    # Without a FlowConfig (or with batch_window=0) opting in is a no-op.
    no_flow = start_object(services, EchoImpl("plain"), host=1)
    assert not no_flow.runtime.enable_batching("Echo")
    assert no_flow.runtime._batcher is None

    services.flow = FlowConfig(batch_window=0.0)
    windowless = start_object(services, EchoImpl("windowless"), host=2)
    assert not windowless.runtime.enable_batching("Echo")
    assert windowless.runtime._batcher is None


def test_in_flight_tracks_every_batch_member(services):
    """Satellite: ObjectServer.in_flight stays accurate under batched dispatch."""
    services.flow = FlowConfig(batch_window=1.0, batch_limit=8)
    caller, callee = _pair(services)
    assert caller.runtime.enable_batching("Slow")
    kernel = services.kernel
    futs = [
        kernel.spawn(caller.runtime.invoke(callee.loid, "Slow", 2.0))
        for _ in range(3)
    ]
    observed = []
    # Flush at t=1, arrival ~t=2, members run until ~t=4.
    kernel.schedule(3.0, lambda: observed.append(callee.in_flight))
    kernel.run()
    assert all(f.exception() is None for f in futs)
    assert observed == [3], "each batch member must count toward in_flight"
    assert callee.in_flight == 0, "all members must be decremented on settle"
    # The request metric counts logical requests, not wire messages.
    assert services.metrics.get(callee.component, MetricsRegistry.REQUESTS) == 3


def test_oversized_batch_is_shed_not_starved(services):
    """A batch wider than the server's capacity sheds every member at once.

    Queueing it would deadlock the admission queue: the pump can never
    free `size > capacity` slots simultaneously, so the batch would sit
    at the head of the line forever.
    """
    services.flow = FlowConfig(
        capacity=2, queue_limit=4, batch_window=1.0, batch_limit=8
    )
    caller, callee = _pair(services)
    caller.runtime.retry_policy = NO_RETRY
    assert caller.runtime.enable_batching("Echo")
    kernel = services.kernel
    futs = [
        kernel.spawn(caller.runtime.invoke(callee.loid, "Echo", text))
        for text in ("a", "b", "c")
    ]
    kernel.run()
    for fut in futs:
        assert isinstance(fut.exception(), Overloaded)
    assert callee.admission.stats.shed == {"capacity": 3}
    # Shed accounting is per logical request on the server...
    assert services.metrics.get(callee.component, MetricsRegistry.SHED) == 3
    assert services.metrics.get(callee.component, MetricsRegistry.REQUESTS) == 0
    # ...and per wire reply on the client (one Overloaded REPLY message).
    assert caller.runtime.stats.shed == 1


def test_batch_within_capacity_is_admitted_whole(services):
    services.flow = FlowConfig(
        capacity=2, queue_limit=4, batch_window=1.0, batch_limit=2
    )
    caller, callee = _pair(services)
    assert caller.runtime.enable_batching("Echo")
    kernel = services.kernel
    futs = [
        kernel.spawn(caller.runtime.invoke(callee.loid, "Echo", text))
        for text in ("a", "b")
    ]
    kernel.run()
    assert [f.result() for f in futs] == ["callee:a", "callee:b"]
    assert callee.admission.stats.admitted == 2
    assert callee.admission.stats.shed == {}


def test_backlog_is_the_queue_resummed_at_every_step(services):
    """``AdmissionController.backlog`` is a running total kept at the three
    places ``waiting`` changes (queue, evict, pump): stepping through
    batches, singles, an eviction and the drain, it equals in-flight plus
    the re-summed queue after every event."""
    services.flow = FlowConfig(
        capacity=2, queue_limit=3, service_estimate=1.0, batch_window=1.0, batch_limit=2
    )
    caller, callee = _pair(services)
    caller.runtime.retry_policy = NO_RETRY
    assert caller.runtime.enable_batching("Echo")
    kernel = services.kernel
    runtime = caller.runtime

    def fire(method, arg, priority=0):
        kernel.spawn(runtime.invoke(callee.loid, method, arg, priority=priority))

    for at in (0.0, 0.1):
        kernel.schedule(at, fire, "Slow", 10.0)  # fill both slots
    for at in (0.2, 0.3, 0.4, 0.5):
        kernel.schedule(at, fire, "Echo", f"pair-{at}")  # two batches of two
    kernel.schedule(2.5, fire, "Slow", 1.0, 3)  # a single: the queue is full
    kernel.schedule(3.0, fire, "Slow", 1.0, 5)  # evicts a batch (priority 0)

    admission = callee.admission
    peak = 0
    while kernel.step():
        queued = sum(admission._size(m) for m in admission.waiting)
        assert admission.backlog == callee.in_flight + queued
        peak = max(peak, queued)
    assert peak == 5  # two two-call batches and a single were queued at once
    assert admission.stats.shed == {"evicted": 2}
    assert admission.backlog == 0 and not admission.waiting
