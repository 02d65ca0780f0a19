"""Tests for bootstrap (4.2.1) and the LegionSystem facade."""

import re

import pytest

from repro import errors
from repro.core.class_types import ClassFlavor
from repro.core.context import SystemServices
from repro.core.relations import RelationGraph
from repro.metrics.counters import MetricsRegistry
from repro.net.latency import LatencyModel, LinkClass
from repro.net.network import Network
from repro.simkernel.kernel import SimKernel
from repro.simkernel.rng import RngStreams
from repro.system.bootstrap import CORE_CLASS_SPECS, bootstrap_core
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl, KVStoreImpl
from tests.invariants import live_impl


def bare_services():
    kernel = SimKernel()
    rng = RngStreams(3)
    return SystemServices(
        kernel=kernel,
        network=Network(
            kernel, LatencyModel(base=dict.fromkeys(LinkClass, 1.0)), rng=rng.stream("n")
        ),
        rng=rng,
        metrics=MetricsRegistry(),
        relations=RelationGraph(),
    )


class TestBootstrapCore:
    def test_all_six_cores_started(self):
        services = bare_services()
        core = bootstrap_core(services, core_host=1)
        assert set(core.servers) == set(CORE_CLASS_SPECS)
        for role in CORE_CLASS_SPECS:
            assert services.core_bindings[role] == core[role].binding()
            assert services.well_known_loid(role) == core.loid(role)
            assert core.servers[role].element in services.network._endpoints

    def test_second_bootstrap_rejected(self):
        services = bare_services()
        bootstrap_core(services, core_host=1)
        with pytest.raises(errors.BootstrapError):
            bootstrap_core(services, core_host=1)

    def test_fig7_relations_recorded(self):
        services = bare_services()
        core = bootstrap_core(services, core_host=1)
        relations = services.relations
        legion_object = core.loid("LegionObject")
        assert relations.superclass_of(core.loid("LegionClass")) == legion_object
        assert relations.superclass_of(core.loid("LegionHost")) == legion_object
        assert relations.sinks() == [legion_object]

    def test_core_flavors(self):
        services = bare_services()
        core = bootstrap_core(services, core_host=1)
        assert core["LegionObject"].impl.flavor & ClassFlavor.ABSTRACT
        assert core["LegionHost"].impl.flavor & ClassFlavor.ABSTRACT
        assert core["LegionClass"].impl.flavor == ClassFlavor.REGULAR


class TestLegionSystemBuild:
    def test_empty_sites_rejected(self):
        with pytest.raises(errors.BootstrapError):
            LegionSystem.build([])

    def test_per_site_inventory(self, legion):
        system, _cls = legion
        for spec in system.sites:
            assert spec.name in system.jurisdictions
            assert spec.name in system.magistrates
            assert spec.name in system.agents
            assert len(system.site_hosts[spec.name]) == spec.hosts

    def test_hosts_assigned_to_sites_in_latency_model(self, legion):
        system, _cls = legion
        for spec in system.sites:
            for host_id in system.site_hosts[spec.name]:
                assert system.network.latency.site_of(host_id) == spec.name

    def test_fig8_host_classes_exist(self, legion):
        system, _cls = legion
        relations = system.services.relations
        unix = system.standard_classes["UnixHost"].loid
        smmp = system.standard_classes["UnixSMMP"].loid
        assert relations.superclass_of(unix) == system.core.loid("LegionHost")
        assert relations.superclass_of(smmp) == unix

    def test_spmd_site_runs_spmd_hosts(self):
        system = LegionSystem.build(
            [SiteSpec("hpc", hosts=1, host_type="cm-5")], seed=3
        )
        host = list(system.host_servers.values())[0]
        assert host.impl.platform == "cm-5"

    def test_mixed_host_types(self):
        system = LegionSystem.build(
            [
                SiteSpec("ws", hosts=1, host_type="unix"),
                SiteSpec("big", hosts=1, host_type="unix-smmp"),
                SiteSpec("hpc", hosts=1, host_type="cray-t3d"),
            ],
            seed=3,
        )
        platforms = {s.impl.platform for s in system.host_servers.values()}
        assert platforms == {"unix", "unix-smmp", "cray-t3d"}


@pytest.mark.parametrize(
    "sites, field, legal",
    [
        pytest.param(
            [SiteSpec("x", host_type="vax")], "host_type",
            "unix, spmd, unix-smmp, cm-5, cray-t3d", id="host_type",
        ),
        pytest.param([SiteSpec("x", hosts=0)], "hosts", "at least 1", id="hosts"),
        pytest.param([SiteSpec("x", disks=0)], "disks", "at least 1", id="disks"),
        pytest.param([SiteSpec("x", hosts=2.5)], "hosts=2.5", "int at least 1", id="hosts-float"),
        pytest.param([SiteSpec("x", disks=True)], "disks=True", "int at least 1", id="disks-bool"),
        pytest.param(
            [SiteSpec("x", max_processes=-3)], "max_processes=-3", "None or an int at least 1",
            id="max_processes-negative",
        ),
        pytest.param([SiteSpec("x"), SiteSpec("x", hosts=1)], "name", "its own", id="name"),
        *(
            pytest.param(
                [SiteSpec("x", host_type=kind, max_processes=8)], "max_processes",
                "unix or unix-smmp", id=f"max_processes-{kind}",
            )
            for kind in ("spmd", "cm-5", "cray-t3d")
        ),
    ],
)
def test_a_site_the_builder_cannot_honour_fails_at_the_boundary(sites, field, legal):
    with pytest.raises(errors.BootstrapError) as info:
        LegionSystem.build(sites)
    message = str(info.value)
    assert message.startswith("site 'x': ") and field in message and legal in message


@pytest.mark.parametrize(
    "option, value, legal",
    [
        ("agent_cache_capacity", 0, "[1, inf)"),
        ("agent_cache_capacity", float("nan"), "[1, inf)"),
        ("agent_cache_capacity", float("inf"), "[1, inf)"),
        ("binding_ttl", -1, "(0, inf)"),
        ("binding_ttl", 0.0, "(0, inf)"),
        ("binding_ttl", float("nan"), "(0, inf)"),
        ("binding_ttl", float("inf"), "(0, inf)"),
    ],
)
def test_a_build_option_out_of_range_fails_at_the_boundary(option, value, legal):
    """Both used to pass through: a cache capacity of 0 raised the
    cache's own ValueError deep in the build, a negative TTL was kept."""
    with pytest.raises(errors.InvalidArgument) as info:
        LegionSystem.build([SiteSpec("x")], **{option: value})
    message = str(info.value)
    assert message.startswith(f"{option}={value!r}: ") and legal in message


def test_every_object_started_outside_legion_has_its_row():
    """Host Objects, magistrates, agents and the standard classes: the
    row each gets in its class's (or creator's) logical table."""
    system = LegionSystem.build(
        [SiteSpec("uva", hosts=2), SiteSpec("hpc", hosts=1, host_type="cm-5")], seed=1
    )
    classes = [*system.core.servers.values(), *system.standard_classes.values()]
    by_loid = {server.loid: server for server in classes}
    by_class_id = {server.loid.class_id: server for server in classes}

    def row(server, owner):
        r = owner.impl.table.get(server.loid)
        fields = (r.current_magistrates, r.scheduling_agent, r.candidate_magistrates)
        return r.object_address, *fields, r.is_subclass

    for server in system.standard_classes.values():
        creator = by_loid[server.impl.superclass]
        assert row(server, creator) == (server.address, [], None, None, True)
    instances = [
        *system.host_servers.values(), *system.magistrates.values(), *system.agents.values()
    ]
    for server in instances:
        owner = by_class_id[server.loid.class_id]
        assert row(server, owner) == (server.address, [], None, None, False)
    assert len(system.standard_classes) == 8 and len(instances) == 7


class TestFacade:
    def test_context_names_resolve_in_calls(self, legion):
        system, cls = legion
        system.create_instance(cls.loid, context_name="facade/c1")
        assert system.call("facade/c1", "Ping") == "pong"

    def test_create_class_binds_context_name(self, legion):
        system, _cls = legion
        binding = system.create_class("KV", factory=KVStoreImpl)
        assert system.lookup("classes/KV") == binding.loid

    def test_create_class_from_named_superclass(self, legion):
        system, _cls = legion
        system.create_class("Base2", factory=CounterImpl)
        sub = system.create_class("Sub2", superclass="classes/Base2")
        relations = system.services.relations
        assert relations.superclass_of(sub.loid) == system.lookup("classes/Base2")

    @pytest.mark.parametrize("name", ["", "Counter"])
    def test_class_names_fail_at_the_boundary(self, fresh_legion, name):
        """An empty name, or one ``classes/`` already binds, is refused
        by name; the existing binding is left alone."""
        system, cls = fresh_legion
        with pytest.raises(errors.InvalidArgument, match=f"class name {name!r}"):
            system.create_class(name, factory=CounterImpl)
        assert system.lookup("classes/Counter") == cls.loid

    @pytest.mark.parametrize("timeout", [float("nan"), 0.0, -1.0, float("inf")])
    def test_a_bad_call_timeout_is_refused_and_poisons_nothing(self, fresh_legion, timeout):
        """NaN used to wedge the object: every later call to it timed out
        in GetBinding.  0 and -1 raised a misleading BindingNotFound and a
        raw SimulationError."""
        system, cls = fresh_legion
        instance = system.create_instance(cls.loid).loid
        with pytest.raises(errors.InvalidArgument, match=re.escape(f"timeout={timeout!r}")):
            system.call(instance, "Ping", timeout=timeout)
        assert system.call(instance, "Ping") == "pong"

    @pytest.mark.parametrize(
        "drive, name",
        [
            (lambda system, loid: system.run(until=float("inf")), "until=inf"),
            (lambda system, loid: system.run(until=float("nan")), "until=nan"),
            (lambda system, loid: system.call(loid, "Ping", max_events=-1), "max_events=-1"),
            (lambda system, loid: system.call(loid, "Ping", max_events=2.5), "max_events=2.5"),
            (lambda system, loid: system.call(loid, "Ping", max_events=True), "max_events=True"),
        ],
        ids=["until-inf", "until-nan", "max-events-neg", "max-events-float", "max-events-bool"],
    )
    def test_a_bad_run_bound_is_refused_and_queues_nothing(self, fresh_legion, drive, name):
        """``until=inf`` moved the clock to inf, ``nan`` was ignored, and
        these ``max_events`` turned the runaway valve off."""
        system, cls = fresh_legion
        instance = system.create_instance(cls.loid).loid
        now, pending = system.kernel.now, system.kernel.pending_events
        with pytest.raises(errors.InvalidArgument, match=re.escape(name)):
            drive(system, instance)
        assert (system.kernel.now, system.kernel.pending_events) == (now, pending)
        assert system.call(instance, "Ping") == "pong"

    @pytest.mark.parametrize(
        "create",
        [
            lambda system, cls: system.create_instance(cls.loid, bogus_hint=3),
            lambda system, cls: system.call(cls.loid, "Create", {"bogus_hint": 3}),
        ],
        ids=["create_instance", "wire"],
    )
    def test_an_unknown_create_hint_is_refused_by_name(self, fresh_legion, create):
        """``bogus_hint=3`` used to be ignored and the instance made."""
        system, cls = fresh_legion
        table = live_impl(system, cls.loid).table
        rows = len(table)
        with pytest.raises(errors.InvalidArgument) as info:
            create(system, cls)
        message = str(info.value)
        assert "'bogus_hint'" in message
        assert "magistrate, host, init, no_delegate" in message
        assert len(table) == rows

    def test_an_unknown_client_site_is_refused_by_name(self, legion):
        """It used to raise a bare ``KeyError: 'zzz'``."""
        system, _cls = legion
        with pytest.raises(errors.InvalidArgument, match="site 'zzz': not one of uva, doe"):
            system.new_client("c", site="zzz")

    def test_new_client_is_not_a_legion_resource(self, legion):
        system, _cls = legion
        client = system.new_client("outsider", site=system.sites[1].name)
        # Clients never enter the relation graph (no is-a edge).
        assert client.loid not in system.services.relations
        # But they can call into Legion.
        assert system.call(
            system.core.loid("LegionClass"), "Ping", client=client
        ) == "pong"

    def test_runtimes_lists_infrastructure_running_objects_and_given_clients(
        self, fresh_legion
    ):
        system, cls = fresh_legion
        instance = system.create_instance(cls.loid)
        system.call(instance.loid, "Ping")  # activates it on some host
        client = system.new_client("counted")
        loids = {runtime.loid for runtime in system.runtimes([client])}
        infrastructure = (
            list(system.host_servers.values())
            + list(system.magistrates.values())
            + list(system.agents.values())
        )
        assert {server.loid for server in infrastructure} <= loids
        assert {instance.loid, cls.loid, client.loid} <= loids
        assert client.loid not in {rt.loid for rt in system.runtimes()}
        assert all(runtime.settled for runtime in system.runtimes([client]))

    def test_reset_measurements(self, legion):
        system, cls = legion
        system.call(cls.loid, "GetInstanceInterface")
        system.reset_measurements()
        assert system.network.stats.messages_sent == 0
        assert system.services.metrics.snapshot() == {}

    def test_binding_ttl_option(self):
        system = LegionSystem.build(
            [SiteSpec("a", hosts=2)], seed=5, binding_ttl=500.0
        )
        cls = system.create_class("Counter", factory=CounterImpl)
        assert cls.expires_at != float("inf")
