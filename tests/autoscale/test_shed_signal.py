"""The autoscaler reads admission sheds as demand, not just served rate.

A server behind admission control *serves* at most its capacity, so the
overflow lives in the SHED counter.  This test drives the controller
with manufactured shed counters (deterministic, no real overload
choreography needed) and pins that a nonzero shed rate vetoes a shrink.
"""

from __future__ import annotations

from repro.autoscale import AutoscaleConfig, CloneController, build_placement_agent
from repro.metrics.counters import ComponentId, ComponentKind, MetricsRegistry
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl


def _build(seed):
    system = LegionSystem.build([SiteSpec("east", hosts=3)], seed=seed)
    cls = system.create_class("Hot", factory=CounterImpl)
    return system, cls


def _shed_component(cls):
    return ComponentId(ComponentKind.CLASS_OBJECT, str(cls.loid))


def test_nonzero_shed_rate_vetoes_shrink_until_dry():
    system, cls = _build(seed=10)
    component = _shed_component(cls)
    clone = system.call(cls.loid, "Clone")
    assert clone is not None
    controller = CloneController(
        system,
        cls,
        AutoscaleConfig(
            high_water=10.0,
            low_water=5.0,  # idle pool is always below this
            cooldown=0.0,
            max_clones=4,
        ),
        build_placement_agent(system),
    )
    # A trickle of sheds keeps landing until t=50: the pool must not
    # shrink while customers are still being turned away.
    for t in range(1, 50, 5):
        system.kernel.post(
            float(t),
            lambda: system.services.metrics.incr(component, MetricsRegistry.SHED),
        )
    controller.start()
    system.kernel.run(until=200.0)
    controller.stop()
    retires = [t for t, kind, _loid in controller.actions if kind == "retire"]
    assert retires, "the idle pool must eventually shrink once sheds stop"
    assert all(t > 50.0 for t in retires), (
        f"shrink fired while sheds were still arriving: {controller.actions}"
    )
    assert len(retires) == 1  # only one clone existed
