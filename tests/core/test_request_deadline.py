"""A request's deadline is one ``kernel.deadline`` on its future.

``send_request`` queues ``LegionRuntime._expire`` with its arguments in
the event itself; whatever settles the request first -- a reply, a
bounce, ``fail_pending`` -- retires it, because the kernel never runs a
deadline whose future has settled.  A fired deadline is exactly one
kernel event at exactly ``sent + deadline``; a retired one is none,
never advances the clock and is not a pending event.
"""

import pytest

from repro import errors
from repro.core.method import MethodInvocation
from repro.security.environment import CallEnvironment

from .conftest import EchoImpl, start_object


def _request(services, caller, element, method="Ping", args=(), timeout=50.0):
    """One bare request (no invoke loop, so no retries) plus its event base."""
    invocation = MethodInvocation(
        target=caller.loid,
        method=method,
        args=args,
        env=CallEnvironment.originating(caller.loid),
    )
    base = services.kernel.events_executed
    return caller.runtime.send_request(element, invocation, timeout), base


def _black_hole(services, host=3):
    element = services.network.allocate_element(host)
    services.network.register(element, lambda message: None)
    return element


class TestRequestDeadline:
    def test_fires_at_exactly_sent_plus_deadline_and_counts_one_event(self, services):
        kernel = services.kernel
        caller = start_object(services, EchoImpl("caller"), host=1)
        kernel.run(until=7.5)
        fut, base = _request(services, caller, _black_hole(services), timeout=50.0)
        failed_at = []
        fut.add_done_callback(lambda _fut: failed_at.append(kernel.now))
        kernel.run()
        assert failed_at == [7.5 + 50.0]
        with pytest.raises(errors.InvocationTimeout, match="Ping/0 within 50.0"):
            fut.result()
        # The swallowed delivery plus the deadline itself.
        assert kernel.events_executed - base == 2
        assert caller.runtime.stats.timeouts == 1
        assert kernel.pending_events == 0
        assert caller.runtime.settled

    def test_a_reply_cancels_it_and_it_counts_no_event(self, services, echo_pair):
        kernel = services.kernel
        caller, callee = echo_pair
        fut, base = _request(services, caller, callee.element, timeout=50.0)
        assert kernel.pending_events == 2  # the delivery and the deadline
        kernel.run()
        assert fut.result().unwrap() == "pong"
        assert kernel.events_executed - base == 2  # request and reply delivery
        assert kernel.now == 2.0  # a retired deadline never moves the clock
        assert caller.runtime.stats.timeouts == 0
        assert kernel.pending_events == 0
        assert caller.runtime.settled

    def test_a_delivery_failure_cancels_it(self, services, echo_pair):
        kernel = services.kernel
        caller, callee = echo_pair
        callee.deactivate()
        fut, base = _request(services, caller, callee.element, timeout=50.0)
        kernel.run()
        with pytest.raises(errors.DeliveryFailure):
            fut.result()
        assert kernel.events_executed - base == 2  # the bounce and its notice
        assert kernel.now == 2.0
        assert caller.runtime.stats.timeouts == 0
        assert caller.runtime.stats.delivery_failures == 1
        assert kernel.pending_events == 0

    def test_fail_pending_cancels_it(self, services):
        kernel = services.kernel
        caller = start_object(services, EchoImpl("caller"), host=1)
        fut, base = _request(services, caller, _black_hole(services), timeout=50.0)
        assert kernel.pending_events == 2
        caller.runtime.fail_pending("deactivating")
        assert kernel.pending_events == 1  # only the doomed delivery
        kernel.run()
        with pytest.raises(errors.DeliveryFailure, match="torn down"):
            fut.result()
        assert kernel.events_executed - base == 1
        assert kernel.now < 50.0  # the deadline never ran
        assert caller.runtime.stats.timeouts == 0
        assert caller.runtime.stats.cancelled == 1
        assert caller.runtime.settled

    def test_no_deadline_no_ticket(self, services, echo_pair):
        kernel = services.kernel
        caller, callee = echo_pair
        caller.runtime.default_timeout = None
        fut, _ = _request(services, caller, callee.element, timeout=None)
        assert kernel.pending_events == 1  # the delivery alone
        kernel.run()
        assert fut.result().unwrap() == "pong"
