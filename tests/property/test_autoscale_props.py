"""Property-based tests over the autoscaler's policy invariants.

Hypothesis sweeps random (high_water, low_water, cooldown) triples; for
each config one seeded burst-then-trickle run must uphold the policy
contract regardless of where the watermarks land:

* no flapping: adjacent opposite-direction actions (a spawn then a
  retire, or vice versa) are at least one cooldown apart;
* the live clone count stays within [0, max_clones] at every step of the
  action log;
* zero lost requests -- retirement drains in-flight work, so trickle
  traffic routed at a retiring clone still completes.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.autoscale import (
    AutoscaleConfig,
    CloneController,
    ClonePoolRouter,
    build_placement_agent,
)
from repro.errors import LegionError
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import OpenLoopDriver

MAX_CLONES = 4


def _drive(config: AutoscaleConfig):
    """One burst-then-trickle run; returns (controller actions, stats)."""
    system = LegionSystem.build(
        [SiteSpec("east", hosts=3, max_processes=256)], seed=7
    )
    hot = system.create_class("HotClass", factory=CounterImpl)
    controller = CloneController(
        system, hot, config, build_placement_agent(system)
    )
    controller.start()
    clients = [system.new_client(f"prop-{i}") for i in range(2)]
    routers = [ClonePoolRouter(client, hot) for client in clients]
    by_client = {id(c): r for c, r in zip(clients, routers, strict=True)}
    for router in routers:
        router.start()

    def choose_call(client):
        return (by_client[id(client)].choose(), "CloneEpoch", ())

    # Burst: 2 req/ms aggregate, above any drawn high_water, so most
    # configs grow the pool...
    burst = OpenLoopDriver(system.kernel, clients, choose_call, [(500.0, 1.0)])
    fut = burst.start()
    system.kernel.run_until_complete(fut, max_events=10_000_000)
    # ...then a live trickle (0.05 req/ms aggregate) below any drawn
    # low_water: the controller retires clones *while* traffic still
    # routes at them through possibly-stale router pools.
    trickle = OpenLoopDriver(system.kernel, clients, choose_call, [(900.0, 40.0)])
    fut = trickle.start()
    system.kernel.run_until_complete(fut, max_events=10_000_000)
    controller.stop()
    for router in routers:
        router.stop()
    system.kernel.run()
    return controller.actions, burst.stats, trickle.stats


@settings(max_examples=6, suppress_health_check=[HealthCheck.too_slow])
@given(
    low=st.floats(min_value=0.05, max_value=0.5),
    gap=st.floats(min_value=0.05, max_value=1.0),
    cooldown=st.floats(min_value=5.0, max_value=80.0),
)
def test_policy_invariants_hold_for_random_watermarks(low, gap, cooldown):
    config = AutoscaleConfig(
        high_water=low + gap,
        low_water=low,
        cooldown=cooldown,
        max_clones=MAX_CLONES,
    )
    actions, burst_stats, trickle_stats = _drive(config)

    # No flapping: opposite-direction neighbours >= one cooldown apart.
    for (t_prev, kind_prev, _), (t_next, kind_next, _) in zip(
        actions, actions[1:], strict=False
    ):
        if kind_prev != kind_next:
            assert t_next - t_prev >= cooldown, (
                f"flap: {kind_prev}@{t_prev} then {kind_next}@{t_next} "
                f"inside cooldown {cooldown}"
            )

    # Clone count stays within bounds at every step.
    live = 0
    for _, kind, _loid in actions:
        live += 1 if kind == "spawn" else -1
        assert 0 <= live <= MAX_CLONES, f"clone count {live} out of bounds"

    # Zero lost requests, including during retirement drains.
    assert burst_stats.calls_failed == 0, burst_stats.errors[:3]
    assert trickle_stats.calls_failed == 0, trickle_stats.errors[:3]


@given(
    low=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    high=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=50)
def test_config_requires_a_hysteresis_gap(low, high):
    if low >= high:
        with pytest.raises(LegionError):
            AutoscaleConfig(high_water=high, low_water=low)
    else:
        config = AutoscaleConfig(high_water=high, low_water=low)
        assert config.low_water < config.high_water


@pytest.mark.parametrize(
    "kwargs",
    [
        {"high_water": 1.0, "low_water": 0.1, "max_clones": -1},
        {"high_water": 1.0, "low_water": 0.1, "cooldown": -1.0},
        {"high_water": 1.0, "low_water": 0.1, "min_clones": 3, "max_clones": 2},
        {"high_water": 1.0, "low_water": 0.1, "min_clones": -1},
    ],
)
def test_config_rejects_degenerate_knobs(kwargs):
    with pytest.raises(LegionError):
        AutoscaleConfig(**kwargs)
