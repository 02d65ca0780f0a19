"""Unit tests for invocation envelopes and the services substrate."""

import pytest

from repro import errors
from repro.core.context import ImplRegistry, SystemServices
from repro.core.method import (
    InvocationContext,
    MethodInvocation,
    MethodResult,
)
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.net.address import AddressSemantic, ObjectAddress, ObjectAddressElement
from repro.net.latency import LatencyModel
from repro.net.message import Message, MessageKind, Undeliverable
from repro.net.network import Network
from repro.security.environment import CallEnvironment
from repro.simkernel.rng import RngStreams

from .conftest import EchoImpl, start_object


def loid(n=1):
    return LOID.for_instance(20, n)


class TestMethodResult:
    def test_success_unwrap(self):
        assert MethodResult(42).unwrap() == 42
        assert MethodResult().unwrap() is None
        assert MethodResult(42).ok

    def test_fields_are_read_only(self):
        result = MethodResult(42)
        with pytest.raises(AttributeError):
            result.value = 43
        with pytest.raises(AttributeError):
            result.error_type = "ValueError"
        assert result == MethodResult(42)

    def test_positional_and_keyword_construction_agree(self):
        assert MethodResult(7) == MethodResult(value=7)
        assert MethodResult(None, "ValueError", "bad", None) == MethodResult(
            error_type="ValueError", error_message="bad"
        )
        assert MethodResult.failure(ValueError("bad")) == MethodResult(
            None, "ValueError", "bad"
        )

    def test_known_error_types_reconstruct(self):
        cases = [
            (errors.MethodNotFound("m"), errors.MethodNotFound),
            (errors.SecurityDenied("s"), errors.SecurityDenied),
            (errors.RequestRefused("r"), errors.RequestRefused),
            (errors.ObjectDeleted("d"), errors.ObjectDeleted),
            (errors.NoCapacity("c"), errors.NoCapacity),
            (errors.AbstractClassError("a"), errors.AbstractClassError),
            (errors.SchedulingError("x"), errors.SchedulingError),
            (errors.ObjectModelError("o"), errors.ObjectModelError),
        ]
        for original, expected_type in cases:
            result = MethodResult.failure(original)
            assert not result.ok
            with pytest.raises(expected_type):
                result.unwrap()

    def test_unknown_error_becomes_invocation_failed(self):
        result = MethodResult.failure(ZeroDivisionError("1/0"))
        with pytest.raises(errors.InvocationFailed) as excinfo:
            result.unwrap()
        assert excinfo.value.remote_type == "ZeroDivisionError"
        assert "1/0" in str(excinfo.value)


class TestInvocation:
    def test_arity(self):
        env = CallEnvironment.originating(loid())
        inv = MethodInvocation(target=loid(2), method="F", args=(1, 2), env=env)
        assert inv.arity == 2
        assert str(inv) == f"{loid(2)}.F/2"

    def test_fields_are_read_only(self):
        env = CallEnvironment.originating(loid())
        inv = MethodInvocation(loid(2), "F", (1,), env)
        for field, value in (("method", "G"), ("args", ()), ("priority", 9)):
            with pytest.raises(AttributeError):
                setattr(inv, field, value)
        assert inv == MethodInvocation(loid(2), "F", (1,), env)

    def test_positional_and_keyword_construction_agree(self):
        env = CallEnvironment.originating(loid())
        assert MethodInvocation(loid(2), "F", (1,), env) == MethodInvocation(
            target=loid(2), method="F", args=(1,), env=env, priority=0, deadline=None
        )
        assert MethodInvocation(loid(2), "F", (), env, 3, 50.0) == MethodInvocation(
            target=loid(2), method="F", args=(), env=env, priority=3, deadline=50.0
        )

    def test_an_all_fan_out_shares_one_unchanged_invocation(self, services):
        caller = start_object(services, EchoImpl("caller"), host=1)
        replicas = [start_object(services, EchoImpl(f"r{i}"), host=2 + i) for i in range(3)]
        group = ObjectAddress(
            elements=tuple(r.element for r in replicas), semantic=AddressSemantic.ALL
        )
        env = CallEnvironment.originating(caller.loid)
        sent = []
        send_request = caller.runtime.send_request

        def recording_send(element, invocation, timeout=None):
            sent.append(invocation)
            return send_request(element, invocation, timeout)

        caller.runtime.send_request = recording_send
        fut = services.kernel.spawn(
            caller.runtime.call_address(group, replicas[0].loid, "Echo", ("x",), env)
        )
        assert sorted(services.kernel.run_until_complete(fut)) == ["r0:x", "r1:x", "r2:x"]
        assert len(sent) == 3
        assert all(invocation is sent[0] for invocation in sent)
        assert sent[0] == MethodInvocation(replicas[0].loid, "Echo", ("x",), env)

    def test_context_nested_env(self):
        env = CallEnvironment.originating(loid(1))
        ctx = InvocationContext(env=env, target=loid(2), method="F")
        assert (ctx.env, ctx.target, ctx.method) == (env, loid(2), "F")
        nested = ctx.nested_env(loid(2))
        assert nested.responsible_agent == loid(1)
        assert nested.calling_agent == loid(2)


class TestMessages:
    def element(self, host=1, port=1024):
        from repro.net.address import ObjectAddressElement

        return ObjectAddressElement.sim(host, port)

    def test_request_reply_correlation(self):
        request = Message.request(self.element(1), self.element(2), "payload")
        reply = request.reply_with("answer")
        assert reply.kind is MessageKind.REPLY
        assert reply.correlation_id == request.correlation_id
        assert reply.source == request.destination
        assert reply.destination == request.source

    def test_failure_notice(self):
        request = Message.request(self.element(1), self.element(2), "p")
        notice = request.failure_notice(Undeliverable.NO_ENDPOINT)
        assert notice.kind is MessageKind.DELIVERY_FAILURE
        assert notice.correlation_id == request.correlation_id
        assert notice.destination == request.source
        assert notice.payload is Undeliverable.NO_ENDPOINT

    def test_no_write_only_fields(self):
        request = Message.request(self.element(1), self.element(2), "p")
        assert not hasattr(request, "size_hint")
        assert not hasattr(request, "sent_at")
        assert request == Message(
            MessageKind.REQUEST, self.element(1), self.element(2), "p",
            request.correlation_id,
        )

    def test_distinct_correlation_ids(self):
        a = Message.request(self.element(1), self.element(2), "x")
        b = Message.request(self.element(1), self.element(2), "y")
        assert a.correlation_id != b.correlation_id

    def test_event_has_no_reply_expectation(self):
        event = Message.event(self.element(1), self.element(2), ("gossip",))
        assert event.kind is MessageKind.EVENT


class TestImplRegistry:
    def test_register_create(self):
        registry = ImplRegistry()
        registry.register("thing", lambda x=1: ("made", x))
        assert registry.create("thing") == ("made", 1)
        assert registry.create("thing", x=5) == ("made", 5)
        assert "thing" in registry
        assert registry.get("thing") is not None
        assert registry.get("missing") is None

    def test_duplicate_needs_replace(self):
        registry = ImplRegistry()
        registry.register("thing", lambda: 1)
        with pytest.raises(errors.BootstrapError):
            registry.register("thing", lambda: 2)
        registry.register("thing", lambda: 2, replace=True)
        assert registry.create("thing") == 2

    def test_unknown_create_rejected(self):
        with pytest.raises(errors.BootstrapError):
            ImplRegistry().create("ghost")

    def test_names_sorted(self):
        registry = ImplRegistry()
        registry.register("b", lambda: 1)
        registry.register("a", lambda: 1)
        assert registry.names() == ["a", "b"]


class TestSystemServices:
    def test_well_known_requires_bootstrap(self, services):
        with pytest.raises(errors.BootstrapError):
            services.well_known_loid("LegionClass")
        address = ObjectAddress.single(ObjectAddressElement.sim(1, 1))
        services.core_bindings["LegionClass"] = Binding(loid(9), address)
        assert services.well_known_loid("LegionClass") == loid(9)

    def test_a_bare_services_has_a_relation_graph(self, kernel):
        rng = RngStreams(7)
        network = Network(kernel, LatencyModel.uniform(1.0), rng=rng.stream("n"))
        services = SystemServices(kernel=kernel, network=network, rng=rng)
        # Every class object records its births here unguarded.
        services.relations.record_is_a(loid(1), LOID.for_class(20))
        assert services.relations.class_of(loid(1)) == LOID.for_class(20)


class TestSMMPNodes:
    def test_activations_carry_processor_numbers(self, services):
        from repro.hosts.host_types import UnixSMMPHostImpl
        from repro.workloads.apps import CounterImpl
        from tests.core.conftest import start_object
        from tests.hosts.test_hosts import make_opr

        host = start_object(services, UnixSMMPHostImpl(host_id=9, processors=4), host=9)
        services.impls.register("app.counter", CounterImpl, replace=True)
        addresses = [
            host.impl.activate(make_opr(services, seq=i + 1)) for i in range(5)
        ]
        nodes = [a.primary().node for a in addresses]
        assert nodes == [0, 1, 2, 3, 0]  # round-robin over processors
