"""Scheduling Agent policies (sections 3.7-3.8 hooks)."""

import pytest

from repro import errors
from repro.metrics.counters import ComponentKind
from repro.core.server import ObjectServer
from repro.scheduling.agent import LeastLoadedSchedulingAgent


def start_scheduler(system, impl, name="sched"):
    sched_class = system.standard_classes["StandardScheduler"]
    loid = sched_class.impl._allocate_instance_loid()
    server = ObjectServer(
        system.services,
        loid,
        impl,
        host=system.site_hosts[system.sites[0].name][0],
        component_kind=ComponentKind.SCHEDULER,
        component_name=name,
    )
    server.runtime.set_binding_agent(system.agents[system.sites[0].name].binding())
    sched_class.impl.register_out_of_band(server.binding())
    return server


class TestPolicies:
    def test_candidates_override_pool(self, fresh_legion):
        system, cls = fresh_legion
        magistrates = [m.loid for m in system.magistrates.values()]
        sched = start_scheduler(system, LeastLoadedSchedulingAgent(magistrates))
        only = [magistrates[1]]
        picks = {
            system.call(sched.loid, "ChooseMagistrate", cls.loid, only)
            for _ in range(3)
        }
        assert picks == {magistrates[1]}

    def test_least_loaded_prefers_empty_magistrate(self, fresh_legion):
        system, cls = fresh_legion
        site0, site1 = system.sites[0].name, system.sites[1].name
        magistrates = [system.magistrates[site0].loid, system.magistrates[site1].loid]
        # Load up site0's magistrate.
        for _ in range(3):
            system.call(cls.loid, "Create", {"magistrate": magistrates[0]})
        sched = start_scheduler(system, LeastLoadedSchedulingAgent(magistrates))
        pick = system.call(sched.loid, "ChooseMagistrate", cls.loid, None)
        assert pick == magistrates[1]

    def test_empty_pool_rejected(self, fresh_legion):
        system, cls = fresh_legion
        sched = start_scheduler(system, LeastLoadedSchedulingAgent([]))
        with pytest.raises(errors.SchedulingError):
            system.call(sched.loid, "ChooseMagistrate", cls.loid, None)


class TestClassUsesSchedulingAgent:
    def test_create_consults_the_agent(self, fresh_legion):
        system, _cls = fresh_legion
        site1 = system.sites[1].name
        pinned = system.magistrates[site1].loid
        sched = start_scheduler(system, LeastLoadedSchedulingAgent([pinned]), "pinner")
        from repro.workloads.apps import CounterImpl

        cls = system.create_class(
            "Scheduled",
            instance_factory="app.sched-counter",
            factory=CounterImpl,
            scheduling_agent=sched.loid,
            candidate_magistrates=None,
        )
        binding = system.call(cls.loid, "Create", {})
        row = system.call(cls.loid, "GetRow", binding.loid)
        assert row.current_magistrates == [pinned]
