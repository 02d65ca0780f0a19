"""Scenario spec validation: actionable errors, loader, catalog."""

import pytest

from repro.scenarios import (
    ScenarioSpecError,
    catalog,
    from_dict,
    get_scenario,
    scenario_names,
    validate,
)
from repro.scenarios.spec import ScenarioSpec


INF, NAN = float("inf"), float("nan")


def minimal(**overrides):
    data = {
        "name": "t",
        "phases": [{"name": "p", "duration": 100.0}],
    }
    data.update(overrides)
    return data


def test_minimal_spec_builds_with_defaults():
    spec = from_dict(minimal())
    assert spec.name == "t"
    assert spec.sites == 2
    assert spec.duration == 100.0
    assert spec.targets_total == spec.n_classes * spec.sites


def test_unknown_top_level_key_names_the_valid_ones():
    with pytest.raises(ScenarioSpecError) as err:
        from_dict(minimal(durration=5))
    assert "unknown key 'durration'" in str(err.value)
    assert "'description'" in str(err.value)  # the valid keys are listed


def test_unknown_nested_key_names_the_path():
    bad = minimal()
    bad["phases"][0]["arrival"] = {"kindd": "poisson"}
    with pytest.raises(ScenarioSpecError) as err:
        from_dict(bad)
    assert "phases[0].arrival" in str(err.value)
    assert "kindd" in str(err.value)


def test_missing_name_is_actionable():
    with pytest.raises(ScenarioSpecError):
        from_dict({"phases": [{"name": "p", "duration": 1.0}]})


@pytest.mark.parametrize(
    ("mutate", "needle"),
    [
        (lambda d: d.update(sites=0), "sites"),
        (lambda d: d.update(tick_ms=0), "tick_ms"),
        (lambda d: d.update(service_time=-1), "service_time"),
        (lambda d: d.update(phases=[]), "at least one phase"),
        (
            lambda d: d["phases"][0].update(duration=0),
            "phases[0].duration",
        ),
        (
            lambda d: d["phases"][0].update(
                arrival={"kind": "bursty"}
            ),
            "unknown arrival kind 'bursty'",
        ),
        (
            lambda d: d["phases"][0].update(
                session={"p_continue": 0.8, "p_abandon": 0.8}
            ),
            "must sum to 1",
        ),
        (
            lambda d: d.update(mix={"kinds": {"telnet": 1.0}}),
            "unknown request kind",
        ),
        (
            lambda d: d.update(mix={"kinds": {"work": 0.5}}),
            "sum to 1",
        ),
        (
            lambda d: d.update(mix={"kinds": {"work": 1.0}, "locality": 1.5}),
            "locality",
        ),
        (
            lambda d: d.update(
                tenants=[{"name": "a"}, {"name": "a"}]
            ),
            "unique",
        ),
        (
            lambda d: d.update(tenants=[{"name": "a", "weight": 0}]),
            "tenants[0].weight",
        ),
        (lambda d: d.update(checkpoint_restart=True), "'checkpoint_restart'"),
        # Non-finite numbers: ``inf`` passes every lower bound, and a phase
        # of ``duration=inf`` used to compile forever.
        (
            lambda d: d["phases"][0].update(duration=INF),
            "phases[0].duration: duration must be finite",
        ),
        (lambda d: d.update(tick_ms=INF), "tick_ms: tick_ms must be finite"),
        (lambda d: d.update(service_time=INF), "service_time: service_time must be finite"),
        (lambda d: d.update(read_time=INF), "read_time: read_time must be finite"),
        (lambda d: d.update(batch_units=INF), "batch_units: batch_units must be finite"),
        (lambda d: d.update(sites=INF), "sites: sites must be finite"),
        (
            lambda d: d["phases"][0].update(arrival={"rate": INF}),
            "phases[0].arrival.rate: rate must be finite",
        ),
        (
            lambda d: d["phases"][0].update(arrival={"kind": "diurnal", "period": INF}),
            "phases[0].arrival.period: period must be finite",
        ),
        (
            lambda d: d["phases"][0].update(arrival={"amplitude": NAN}),
            "phases[0].arrival.amplitude: amplitude must be finite",
        ),
        (
            lambda d: d["phases"][0].update(arrival={"kind": "flash", "surge_at": INF}),
            "phases[0].arrival.surge_at: surge_at must be finite",
        ),
        (
            lambda d: d["phases"][0].update(arrival={"kind": "flash", "surge_duration": INF}),
            "phases[0].arrival.surge_duration: surge_duration must be finite",
        ),
        (
            lambda d: d["phases"][0].update(arrival={"kind": "flash", "surge_mult": INF}),
            "phases[0].arrival.surge_mult: surge_mult must be finite",
        ),
        (
            lambda d: d["phases"][0].update(session={"think_time": INF}),
            "phases[0].session.think_time: think_time must be finite",
        ),
        (
            lambda d: d["phases"][0].update(session={"max_requests": INF}),
            "phases[0].session.max_requests: max_requests must be finite",
        ),
        (lambda d: d.update(tenants=[{"weight": INF}]), "tenants[0].weight: weight must be finite"),
        (
            lambda d: d.update(tenants=[{"deadline": INF}]),
            "tenants[0].deadline: deadline must be finite",
        ),
        (
            lambda d: d.update(mix={"kinds": {"work": 1.0}, "zipf_s": INF}),
            "mix.zipf_s: zipf_s must be finite",
        ),
    ],
)
def test_invalid_specs_fail_with_the_offending_path(mutate, needle):
    data = minimal()
    mutate(data)
    with pytest.raises(ScenarioSpecError) as err:
        from_dict(data)
    assert needle in str(err.value)


def test_validate_accepts_already_built_specs():
    spec = from_dict(minimal())
    assert validate(spec) is spec


def test_capacity_is_targets_over_service_time():
    spec = from_dict(minimal(sites=3, n_classes=2, service_time=2.0))
    assert spec.capacity_per_ms() == spec.targets_total / 2.0


# ----------------------------------------------------------------- catalog


def test_catalog_has_the_five_required_scenarios():
    names = scenario_names()
    assert len(names) >= 5
    for required in (
        "diurnal-regional",
        "flash-crowd",
        "multi-tenant",
        "scientific-batch",
        "repository",
    ):
        assert required in names


def test_every_catalog_entry_is_a_validated_spec():
    for name, spec in catalog().items():
        assert isinstance(spec, ScenarioSpec)
        assert spec.name == name
        assert validate(spec) is spec
        assert spec.duration > 0


def test_get_scenario_miss_lists_the_catalog():
    with pytest.raises(ScenarioSpecError) as err:
        get_scenario("nope")
    assert "diurnal-regional" in str(err.value)


def test_multi_tenant_gates_privileged_behind_a_privileged_tenant():
    spec = get_scenario("multi-tenant")
    assert "privileged" in spec.mix.kinds
    assert any(t.privileged for t in spec.tenants)
    assert any(not t.privileged for t in spec.tenants)
