"""Compiled event streams and the rich-object replay."""

import pytest

from repro.errors import InvalidArgument
from repro.scenarios import (
    ScenarioDriver,
    compile_events,
    deploy,
    from_dict,
    get_scenario,
    per_tick_arrivals,
    stream_stats,
)

from tests._state import ticks

TINY = {
    "name": "tiny",
    "sites": 2,
    "n_classes": 2,
    "mix": {"kinds": {"work": 0.7, "read": 0.3}, "locality": 0.8},
    "phases": [
        {
            "name": "only",
            "duration": 120.0,
            "arrival": {"kind": "poisson", "rate": 0.5},
            "session": {
                "think_time": 5.0,
                "p_continue": 0.5,
                "p_abandon": 0.5,
                "max_requests": 3,
            },
        }
    ],
}


def test_compilation_is_deterministic_per_seed():
    spec = from_dict(TINY)
    assert compile_events(spec, 3) == compile_events(spec, 3)
    a, b = compile_events(spec, 1), compile_events(spec, 2)
    assert a != b  # different seeds draw different streams


def test_stream_stats_account_for_every_session():
    spec = from_dict(TINY)
    plan = compile_events(spec, 0)
    stats = stream_stats(plan)
    assert stats["sessions"] == sum(per_tick_arrivals(plan))
    assert stats["sessions"] == stats["completed"] + stats["abandoned"]
    assert stats["requests"] >= stats["sessions"]
    assert stats["denied"] == 0  # no privileged kind in the mix


def test_rate_scale_multiplies_the_offered_load():
    spec = from_dict(TINY)
    base = stream_stats(compile_events(spec, 0))["sessions"]
    scaled = stream_stats(compile_events(spec, 0, rate_scale=4.0))["sessions"]
    assert scaled > 2 * base


@pytest.mark.parametrize("rate_scale", [float("nan"), float("inf"), -1.0])
def test_rate_scale_outside_its_range_is_refused(rate_scale):
    with pytest.raises(InvalidArgument) as err:
        compile_events(from_dict(TINY), 0, rate_scale=rate_scale)
    assert "rate_scale" in str(err.value)
    assert "[0, inf)" in str(err.value)


def test_arrivals_respect_site_and_class_bounds():
    spec = get_scenario("multi-tenant")
    plan = compile_events(spec, 0)
    for tick in ticks(plan):
        for a in tick.arrivals:
            assert 0 <= a.site < spec.sites
            assert 0 <= a.target_site < spec.sites
            assert 0 <= a.klass < spec.n_classes
            assert 0 <= a.tenant < len(spec.tenants)
            assert 0 <= a.slot < spec.targets_per_site
            assert len(a.requests) >= 1
            assert a.requests[0].think == 0.0


def test_rich_replay_conserves_sessions_and_settles():
    spec = from_dict(TINY)
    plan = compile_events(spec, 0)
    dep = deploy(spec, 0)
    driver = ScenarioDriver(dep, plan)
    fut = driver.start()
    dep.system.kernel.run_until_complete(fut, max_events=5_000_000)
    dep.system.kernel.run()
    expected = stream_stats(plan)
    assert driver.sessions.started == expected["sessions"]
    assert driver.sessions.completed == expected["completed"]
    assert driver.sessions.abandoned == expected["abandoned"]
    assert driver.sessions.active == 0
    counts = driver.outcome_counts()
    assert counts["failed"] == 0
    assert counts["pending"] == 0
    assert counts["ok"] == expected["requests"]


def test_replay_is_paced_not_front_loaded():
    """Arrivals land at base + offset, not all at once at spawn time."""
    spec = from_dict(TINY)
    plan = compile_events(spec, 0)
    dep = deploy(spec, 0)
    driver = ScenarioDriver(dep, plan)
    fut = driver.start()
    dep.system.kernel.run_until_complete(fut, max_events=5_000_000)
    issues = [rec["issue"] - driver.t_base for rec in driver.records]
    assert min(issues) >= 0.0
    assert max(issues) > spec.duration / 2  # the timeline actually elapsed
