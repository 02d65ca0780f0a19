"""Regression tests: a settled request's deadline never fires.

Every request with a deadline queues ``_expire`` as a kernel deadline on
the request's future.  When the request settles early -- a reply, a
delivery failure, or the runtime being torn down -- the deadline must
retire with it, not fire against a recycled correlation id, bump the
timeout counter spuriously or linger as a pending event.
"""

import pytest

from repro import errors
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress

from .conftest import EchoImpl, run_call, start_object


def _drain(services) -> None:
    """Run the kernel dry -- far past any pending deadline."""
    services.kernel.run()


def _black_hole_binding(services, host=3):
    """A live endpooint that swallows every message (requests vanish)."""
    element = services.network.allocate_element(host)
    services.network.register(element, lambda message: None)
    loid = LOID.for_instance(91, 1, services.secret)
    return Binding(loid, ObjectAddress.single(element))


class TestTimeoutCancellation:
    def test_reply_cancels_the_timeout_event(self, services, echo_pair):
        caller, callee = echo_pair
        kernel = services.kernel
        assert run_call(services, caller, callee.loid, "Ping") == "pong"
        assert kernel.pending_events == 0
        # Drive simulated time far beyond the default deadline: the
        # retired _expire must not fire, nor count an event.
        events, now = kernel.events_executed, kernel.now
        _drain(services)
        assert (kernel.events_executed, kernel.now) == (events, now)
        assert caller.runtime.stats.timeouts == 0

    def test_every_settled_request_releases_its_handle(self, services, echo_pair):
        caller, callee = echo_pair
        for i in range(5):
            run_call(services, caller, callee.loid, "Echo", str(i))
        assert services.kernel.pending_events == 0
        assert caller.runtime.settled

    def test_delivery_failure_cancels_the_timeout_event(self, services, echo_pair):
        caller, callee = echo_pair
        callee.deactivate()  # requests now bounce as stale
        with pytest.raises(errors.LegionError):
            run_call(services, caller, callee.loid, "Ping")
        assert services.kernel.pending_events == 0
        _drain(services)
        assert caller.runtime.stats.timeouts == 0

    def test_fail_pending_cancels_in_flight_timeouts(self, services, echo_pair):
        caller, callee = echo_pair
        fut = services.kernel.spawn(
            caller.runtime.invoke(callee.loid, "Slow", 500.0)
        )
        # Let the request leave but not complete.
        services.kernel.run(until=1.0)
        assert caller.runtime.pending_count == 1
        caller.runtime.fail_pending("deactivating")
        _drain(services)
        assert caller.runtime.stats.timeouts == 0
        # The teardown surfaces as DeliveryFailure, or -- because the
        # invoke retry loop treats it as a stale binding and there is no
        # Binding Agent to refresh from -- as BindingNotFound.
        with pytest.raises((errors.DeliveryFailure, errors.BindingNotFound)):
            fut.result()

    def test_genuine_timeout_still_fires_and_cleans_up(self, services):
        caller = start_object(services, EchoImpl("caller"), host=1)
        binding = _black_hole_binding(services)
        caller.runtime.seed_binding(binding)
        with pytest.raises(errors.LegionError) as excinfo:
            run_call(services, caller, binding.loid, "Ping", timeout=50.0)
        # The timeout surfaces directly, or -- after refresh attempts with
        # no Binding Agent -- as BindingNotFound; either way it was counted
        # and its bookkeeping is gone.
        assert isinstance(
            excinfo.value, (errors.InvocationTimeout, errors.BindingNotFound)
        )
        assert caller.runtime.stats.timeouts >= 1
        assert services.kernel.pending_events == 0
        assert caller.runtime.settled

    def test_late_reply_after_timeout_is_dropped(self, services, echo_pair):
        caller, callee = echo_pair
        fut = services.kernel.spawn(
            caller.runtime.invoke(callee.loid, "Slow", 400.0, timeout=10.0)
        )
        _drain(services)
        assert fut.failed()
        # The reply eventually arrived at the caller and was discarded:
        # nothing pending anywhere, exactly one timeout.
        assert services.kernel.pending_events == 0
        assert caller.runtime.settled
        assert caller.runtime.stats.timeouts == 1
