"""Integration: call-environment propagation, trust boundaries, lifecycle."""

import pytest

from repro import errors
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.security.mayi import TrustSetPolicy


class EnvProbe(LegionObjectImpl):
    """Records the environments of the calls it receives."""

    def __init__(self):
        self.seen = []

    @legion_method("Observe()")
    def observe(self, *, ctx=None):
        self.seen.append(ctx.env)

    @legion_method("Relay(LOID)")
    def relay(self, target, *, ctx=None):
        # Forward: the paper's RA must survive the hop; CA becomes us.
        yield from self.runtime.invoke(
            target, "Observe", env=ctx.nested_env(self.loid)
        )


class TestEnvironmentPropagation:
    def test_ra_preserved_ca_rewritten_across_hops(self, fresh_legion):
        system, _cls = fresh_legion
        probe_cls = system.create_class("EnvProbe", factory=EnvProbe)
        relay = system.call(probe_cls.loid, "Create", {})
        sink = system.call(probe_cls.loid, "Create", {})
        system.call(relay.loid, "Relay", sink.loid)

        # Find the sink's implementation to inspect what it saw.
        sink_impl = None
        for host_server in system.host_servers.values():
            entry = host_server.impl.processes.find(sink.loid)
            if entry is not None:
                sink_impl = entry.server.impl
        assert sink_impl is not None and sink_impl.seen
        env = sink_impl.seen[0]
        assert env.responsible_agent == system.console.loid  # originator
        assert env.calling_agent == relay.loid  # immediate caller

    def test_trust_policy_sees_original_principal_through_relay(self, fresh_legion):
        system, _cls = fresh_legion
        probe_cls = system.create_class("EnvProbe2", factory=EnvProbe)
        relay = system.call(probe_cls.loid, "Create", {})
        sink = system.call(probe_cls.loid, "Create", {})

        # Gate the sink on the *responsible agent* being the console.
        policy = TrustSetPolicy()
        policy.trust(system.console.loid)
        for host_server in system.host_servers.values():
            entry = host_server.impl.processes.find(sink.loid)
            if entry is not None:
                entry.server.impl.mayi_policy = policy

        # Console-initiated call, relayed: admitted (RA == console).
        system.call(relay.loid, "Relay", sink.loid)

        # Another client's relayed call: refused at the sink's MayI even
        # though the immediate caller (the relay) is the same object.
        stranger = system.new_client("stranger")
        with pytest.raises(errors.SecurityDenied):
            system.call(relay.loid, "Relay", sink.loid, client=stranger)


class TestLifecycleUnderLoad:
    def test_interleaved_calls_and_deactivations_never_lose_updates(
        self, fresh_legion
    ):
        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        row = system.call(cls.loid, "GetRow", binding.loid)
        magistrate = row.current_magistrates[0]
        total = 0
        for i in range(10):
            system.call(binding.loid, "Increment", i)
            total += i
            if i % 3 == 0:
                system.call(magistrate, "Deactivate", binding.loid)
        assert system.call(binding.loid, "Get") == total

    def test_many_objects_spread_over_hosts(self, fresh_legion):
        system, cls = fresh_legion
        bindings = [system.call(cls.loid, "Create", {}) for _ in range(12)]
        hosts_used = {b.address.primary().host for b in bindings}
        assert len(hosts_used) >= 3  # round-robin over magistrates+hosts
        for i, b in enumerate(bindings):
            assert system.call(b.loid, "Increment", i) == i

    def test_concurrent_clients_against_one_object(self, fresh_legion):
        from repro.workloads.generators import TrafficDriver

        system, cls = fresh_legion
        binding = system.call(cls.loid, "Create", {})
        clients = [system.new_client(f"load{i}") for i in range(5)]
        driver = TrafficDriver(
            system.kernel,
            clients,
            choose_call=lambda _c: (binding.loid, "Increment", (1,)),
            calls_per_client=20,
            think_time=0.5,
        )
        stats = system.kernel.run_until_complete(driver.start())
        assert stats.success_rate == 1.0
        assert system.call(binding.loid, "Get") == 100


class TestDerivedMagistratePolicies:
    def test_custom_magistrate_class_via_subclassing(self, fresh_legion):
        """Fig. 9: sites derive their own magistrate classes."""
        from repro.jurisdiction.magistrate import MagistrateImpl

        class ParanoidMagistrate(MagistrateImpl):
            def admit_opr(self, opr):
                return opr.annotations.get("certified", False)

        system, cls = fresh_legion
        site = system.sites[1].name
        old_server = system.magistrates[site]
        paranoid = ParanoidMagistrate(old_server.impl.jurisdiction)
        paranoid.hosts = list(old_server.impl.hosts)
        paranoid.loid = old_server.loid
        paranoid.runtime = old_server.runtime
        paranoid.services = old_server.services
        old_server.impl = paranoid

        with pytest.raises(errors.RequestRefused):
            system.call(cls.loid, "Create", {"magistrate": old_server.loid})
