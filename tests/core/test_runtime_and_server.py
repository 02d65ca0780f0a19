"""Tests for the communication layer + dispatch loop working together."""

import pytest

from repro import errors
from repro.core.composite import CompositeImpl
from repro.core.method import MethodInvocation, MethodResult
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.naming.binding import Binding
from repro.net.address import AddressSemantic, ObjectAddress
from repro.security.environment import CallEnvironment
from repro.security.mayi import AllowAll, DenyAll
from repro.simkernel.kernel import Timeout
from tests._state import clear_cache, heal_all

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


class _SlowFailImpl(LegionObjectImpl):
    @legion_method("SlowFail(float)")
    def slow_fail(self, delay: float):
        yield Timeout(delay)
        raise ValueError("late failure")


class TestDispatch:
    """The one dispatch frame: MayI read live (a composite's is its primary
    part's), generator methods replying from their process."""

    def test_composite_part_that_denies_still_refuses(self, services):
        composite = CompositeImpl([EchoImpl("part"), EchoImpl("other")])
        server = start_object(services, composite, host=2)
        caller = start_object(services, EchoImpl("caller"), host=1)
        caller.runtime.seed_binding(server.binding())
        assert run_call(services, caller, server.loid, "Echo", "x") == "part:x"
        # A policy the primary part takes on after construction governs.
        composite.parts[0].mayi_policy = DenyAll()
        assert isinstance(composite.mayi_policy, DenyAll)
        with pytest.raises(errors.SecurityDenied):
            run_call(services, caller, server.loid, "Echo", "x")
        # One swapped on the composite, as scenarios do, lands on the part.
        composite.mayi_policy = AllowAll()
        assert isinstance(composite.parts[0].mayi_policy, AllowAll)
        assert run_call(services, caller, server.loid, "Echo", "y") == "part:y"
        composite.mayi_policy = DenyAll()
        with pytest.raises(errors.SecurityDenied):
            run_call(services, caller, server.loid, "Echo", "z")

    def test_call_path_envelopes_equal_their_named_tuples(
        self, services, echo_pair, monkeypatch
    ):
        # The call path builds both with tuple.__new__, every field spelled
        # out; a field added here must be added there too.
        assert MethodInvocation._fields == (
            "target", "method", "args", "env", "priority", "deadline"
        )
        assert MethodInvocation._field_defaults == {"priority": 0, "deadline": None}
        assert MethodResult._fields == (
            "value", "error_type", "error_message", "error_detail"
        )
        assert MethodResult._field_defaults == {
            "value": None, "error_type": "", "error_message": "", "error_detail": None
        }
        caller, callee = echo_pair
        env = caller.impl.own_env()
        built = caller.runtime._invocation(callee.loid, "Echo", ("a",), env, None, 0)
        assert built == MethodInvocation(callee.loid, "Echo", ("a",), env)
        sent = []
        send = services.network.send
        monkeypatch.setattr(
            services.network, "send", lambda m: (sent.append(m.payload), send(m))
        )
        assert run_call(services, caller, callee.loid, "Echo", "a") == "callee:a"
        finished_at = run_call(services, caller, callee.loid, "Slow", 2.0)
        first = next(p for p in sent if type(p) is MethodInvocation)
        assert first == MethodInvocation(callee.loid, "Echo", ("a",), first.env)
        # A plain method's reply, then a generator method's.
        results = [p for p in sent if type(p) is MethodResult]
        assert results == [MethodResult("callee:a"), MethodResult(finished_at)]

    def test_policy_swapped_on_a_live_impl_refuses_the_next_request(
        self, services, echo_pair
    ):
        caller, callee = echo_pair
        assert run_call(services, caller, callee.loid, "Echo", "a") == "callee:a"
        callee.impl.mayi_policy = DenyAll()
        with pytest.raises(errors.SecurityDenied):
            run_call(services, caller, callee.loid, "Echo", "b")
        assert callee.impl.calls == 1  # the refused request never ran
        callee.impl.mayi_policy = AllowAll()
        assert run_call(services, caller, callee.loid, "Echo", "c") == "callee:c"

    def test_generator_method_replies_when_its_process_returns(
        self, services, echo_pair
    ):
        caller, callee = echo_pair
        sent_at = services.kernel.now
        finished_at = run_call(services, caller, callee.loid, "Slow", 10.0)
        assert finished_at == sent_at + 1.0 + 10.0  # one hop, then the method
        assert services.kernel.now == finished_at + 1.0  # the reply's hop
        assert callee.in_flight == 0 and caller.runtime.settled

    def test_generator_method_failure_is_marshalled(self, services):
        caller = start_object(services, EchoImpl("caller"), host=1)
        callee = start_object(services, _SlowFailImpl(), host=2)
        caller.runtime.seed_binding(callee.binding())
        with pytest.raises(errors.InvocationFailed, match="late failure"):
            run_call(services, caller, callee.loid, "SlowFail", 5.0)
        assert callee.in_flight == 0 and caller.runtime.settled


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
        heal_all(services.network)
        callee.deactivate()
        stale = bounce()
        assert type(stale) is errors.DeliveryFailure
        assert str(stale) == f"delivery to {callee.element} failed: no endpoint registered"
        assert partitioned.element == stale.element == callee.element
        assert caller.runtime.stats.delivery_failures == 2

    def test_expired_cached_binding_is_a_miss(self, services, echo_pair):
        caller, callee = echo_pair
        clear_cache(caller.runtime.cache)
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
        assert callee.element not in services.network._endpoints

    def test_double_deactivate_harmless(self, services, echo_pair):
        _caller, callee = echo_pair
        callee.deactivate()
        callee.deactivate()

    def test_metrics_incremented_per_request(self, services, echo_pair):
        caller, callee = echo_pair
        before = services.metrics.get(callee.component)
        run_call(services, caller, callee.loid, "Ping")
        assert services.metrics.get(callee.component) == before + 1
