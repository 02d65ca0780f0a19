"""Tests for the communication layer + dispatch loop working together."""

import pytest

from repro import errors
from repro.core.method import MethodInvocation
from repro.naming.binding import Binding
from repro.net.address import AddressSemantic, ObjectAddress
from repro.security.environment import CallEnvironment
from repro.security.mayi import DenyAll

from .conftest import EchoImpl, run_call, start_object


class TestInvocation:
    def test_round_trip(self, services, echo_pair):
        caller, callee = echo_pair
        value = run_call(services, caller, callee.loid, "Echo", "hi")
        assert value == "callee:hi"

    def test_multiple_args(self, services, echo_pair):
        caller, callee = echo_pair
        assert run_call(services, caller, callee.loid, "Add", 2, 3) == 5

    def test_remote_exception_reraised_at_caller(self, services, echo_pair):
        caller, callee = echo_pair
        with pytest.raises(errors.InvocationFailed, match="intentional"):
            run_call(services, caller, callee.loid, "Fail")

    def test_method_not_found(self, services, echo_pair):
        caller, callee = echo_pair
        with pytest.raises(errors.MethodNotFound):
            run_call(services, caller, callee.loid, "Nope")

    def test_wrong_arity_is_method_not_found(self, services, echo_pair):
        caller, callee = echo_pair
        with pytest.raises(errors.MethodNotFound):
            run_call(services, caller, callee.loid, "Echo", "a", "b")

    def test_generator_method_runs_as_process(self, services, echo_pair):
        caller, callee = echo_pair
        finished_at = run_call(services, caller, callee.loid, "Slow", 10.0)
        assert finished_at >= 10.0

    def test_any_order_acceptance(self, services, echo_pair):
        # A slow call must not block a later fast one (paper section 2).
        caller, callee = echo_pair
        slow = services.kernel.spawn(
            caller.runtime.invoke(callee.loid, "Slow", 100.0)
        )
        fast = services.kernel.spawn(
            caller.runtime.invoke(callee.loid, "Echo", "quick")
        )
        services.kernel.run_until_complete(fast)
        assert not slow.done()
        services.kernel.run()
        assert slow.done()

    def test_settled_means_nothing_pending_and_every_request_accounted(
        self, services, echo_pair
    ):
        caller, callee = echo_pair
        assert caller.runtime.settled
        slow = services.kernel.spawn(caller.runtime.invoke(callee.loid, "Slow", 5.0))
        services.kernel.run(until=1.0)
        assert not caller.runtime.settled  # one request out, no reply yet
        services.kernel.run()
        assert slow.done() and caller.runtime.settled
        caller.runtime.stats.requests_sent += 1  # a request nobody settled
        assert not caller.runtime.settled

    def test_ctx_carries_calling_agent(self, services, echo_pair):
        caller, callee = echo_pair
        who = run_call(services, caller, callee.loid, "WhoCalls")
        assert who == str(caller.loid)

    def test_mandatory_ping_and_interface(self, services, echo_pair):
        caller, callee = echo_pair
        assert run_call(services, caller, callee.loid, "Ping") == "pong"
        iface = run_call(services, caller, callee.loid, "GetInterface")
        assert iface.has_method("Echo")

    def test_iam_over_the_wire(self, services, echo_pair):
        caller, callee = echo_pair
        creds = run_call(services, caller, callee.loid, "Iam", 1234)
        assert creds.verify(1234, services.secret)


class TestSecurityGate:
    def test_mayi_refusal(self, services, echo_pair):
        caller, callee = echo_pair
        callee.impl.mayi_policy = DenyAll()
        with pytest.raises(errors.SecurityDenied):
            run_call(services, caller, callee.loid, "Echo", "x")

    def test_mayi_probe_method(self, services, echo_pair):
        caller, callee = echo_pair
        assert run_call(services, caller, callee.loid, "MayI", "Echo") is True
        callee.impl.mayi_policy = DenyAll()
        # Probing is itself refused under DenyAll -- that IS the answer.
        with pytest.raises(errors.SecurityDenied):
            run_call(services, caller, callee.loid, "MayI", "Echo")


class TestStaleBindings:
    def test_delivery_failure_without_agent_raises(self, services, echo_pair):
        caller, callee = echo_pair
        callee.deactivate()
        with pytest.raises(errors.BindingNotFound):
            run_call(services, caller, callee.loid, "Echo", "x")
        assert caller.runtime.stats.stale_detected == 1

    def test_bounce_kind_picks_the_exception(self, services, echo_pair):
        """A partition bounce is a PartitionedError and a missing endpoint
        a plain DeliveryFailure -- chosen by the notice's kind, with the
        exception text naming the reason."""
        caller, callee = echo_pair
        latency = services.network.latency
        latency.assign_host(caller.host, "uva")
        latency.assign_host(callee.host, "doe")
        invocation = MethodInvocation(
            callee.loid, "Ping", (), CallEnvironment.originating(caller.loid)
        )

        def bounce():
            fut = caller.runtime.send_request(callee.element, invocation)
            services.kernel.run()
            return fut.exception()

        services.network.partition("uva", "doe")
        partitioned = bounce()
        assert type(partitioned) is errors.PartitionedError
        assert str(partitioned) == f"delivery to {callee.element} failed: network partition"
        services.network.heal_all()
        callee.deactivate()
        stale = bounce()
        assert type(stale) is errors.DeliveryFailure
        assert str(stale) == f"delivery to {callee.element} failed: no endpoint registered"
        assert partitioned.element == stale.element == callee.element
        assert caller.runtime.stats.delivery_failures == 2

    def test_expired_cached_binding_is_a_miss(self, services, echo_pair):
        caller, callee = echo_pair
        caller.runtime.cache.clear()
        caller.runtime.seed_binding(
            Binding(callee.loid, callee.address, expires_at=5.0)
        )
        services.kernel.run(until=10.0)
        with pytest.raises(errors.BindingNotFound):
            # Expired + no agent to refresh through.
            run_call(services, caller, callee.loid, "Echo", "x")

    def test_timeout_on_silent_drop(self, services, echo_pair):
        from repro.net.latency import LinkClass

        caller, callee = echo_pair
        services.network.drop_probability[LinkClass.WIDE_AREA] = 1.0
        services.network.drop_probability[LinkClass.SAME_SITE] = 1.0
        services.network.drop_probability[LinkClass.SAME_HOST] = 1.0
        with pytest.raises(errors.BindingNotFound) as excinfo:
            run_call(services, caller, callee.loid, "Echo", "x", timeout=50.0)
        # The chain bottoms out in the timeout-driven refresh failing.
        assert caller.runtime.stats.timeouts >= 1

    def test_late_reply_after_timeout_is_dropped(self, services, echo_pair):
        caller, callee = echo_pair
        # Slow method + short timeout: reply arrives after expiry.
        with pytest.raises(errors.BindingNotFound):
            run_call(services, caller, callee.loid, "Slow", 500.0, timeout=10.0)
        services.kernel.run()  # the late reply lands harmlessly


class TestAddressSemanticsAtRuntime:
    def test_first_tries_elements_in_order(self, services):
        caller = start_object(services, EchoImpl("caller"), host=1)
        a = start_object(services, EchoImpl("a"), host=2)
        b = start_object(services, EchoImpl("b"), host=3)
        a.deactivate()  # first element is dead
        group = ObjectAddress(
            elements=(a.element, b.element), semantic=AddressSemantic.FIRST
        )
        env = CallEnvironment.originating(caller.loid)
        fut = services.kernel.spawn(
            caller.runtime.call_address(group, b.loid, "Echo", ("x",), env)
        )
        assert services.kernel.run_until_complete(fut) == "b:x"

    def test_all_returns_every_reply(self, services):
        caller = start_object(services, EchoImpl("caller"), host=1)
        replicas = [start_object(services, EchoImpl(f"r{i}"), host=2 + i) for i in range(3)]
        group = ObjectAddress(
            elements=tuple(r.element for r in replicas),
            semantic=AddressSemantic.ALL,
        )
        env = CallEnvironment.originating(caller.loid)
        fut = services.kernel.spawn(
            caller.runtime.call_address(group, replicas[0].loid, "Echo", ("x",), env)
        )
        assert sorted(services.kernel.run_until_complete(fut)) == ["r0:x", "r1:x", "r2:x"]

    def test_k_of_n_returns_k(self, services):
        caller = start_object(services, EchoImpl("caller"), host=1)
        replicas = [start_object(services, EchoImpl(f"r{i}"), host=2 + i) for i in range(3)]
        group = ObjectAddress(
            elements=tuple(r.element for r in replicas),
            semantic=AddressSemantic.K_OF_N,
            k=2,
        )
        env = CallEnvironment.originating(caller.loid)
        fut = services.kernel.spawn(
            caller.runtime.call_address(group, replicas[0].loid, "Echo", ("x",), env)
        )
        assert len(services.kernel.run_until_complete(fut)) == 2


class TestServerLifecycle:
    def test_deactivate_unregisters_and_fails_pending(self, services, echo_pair):
        caller, callee = echo_pair
        pending = services.kernel.spawn(
            callee.runtime.invoke(caller.loid, "Slow", 100.0)
        )
        # Let the request get in flight before tearing the caller side down.
        services.kernel.run(until=5.0)
        callee.deactivate()
        services.kernel.run()
        assert pending.failed()
        assert not services.network.is_registered(callee.element)

    def test_double_deactivate_harmless(self, services, echo_pair):
        _caller, callee = echo_pair
        callee.deactivate()
        callee.deactivate()

    def test_metrics_incremented_per_request(self, services, echo_pair):
        caller, callee = echo_pair
        before = services.metrics.get(callee.component)
        run_call(services, caller, callee.loid, "Ping")
        assert services.metrics.get(callee.component) == before + 1
