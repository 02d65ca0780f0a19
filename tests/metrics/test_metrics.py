"""Unit tests for counters and the series recorder."""

from dataclasses import fields

import pytest

from repro.binding.agent import AgentStats
from repro.core.runtime import RuntimeStats
from repro.metrics.counters import ComponentId, ComponentKind, Counters, MetricsRegistry
from repro.metrics.recorder import SeriesRecorder
from repro.naming.cache import CacheStats
from repro.net.network import NetworkStats

#: Every counter dataclass: each resets from its field declarations.
COUNTERS = [RuntimeStats, AgentStats, NetworkStats, CacheStats]


def comp(name, kind=ComponentKind.BINDING_AGENT):
    return ComponentId(kind, name)


def bump(metrics, component, n):
    for _ in range(n):
        metrics.incr(component, "requests")


class TestMetricsRegistry:
    def test_incr_and_get(self):
        metrics = MetricsRegistry()
        bump(metrics, comp("a"), 3)
        metrics.incr(comp("a"), "shed")
        assert metrics.get(comp("a")) == 3
        assert metrics.get(comp("b")) == 0

    def test_max_by_kind(self):
        metrics = MetricsRegistry()
        bump(metrics, comp("a"), 5)
        bump(metrics, comp("b"), 9)
        bump(metrics, comp("m", ComponentKind.MAGISTRATE), 100)
        assert metrics.max_by_kind(ComponentKind.BINDING_AGENT) == 9
        assert metrics.max_by_kind(ComponentKind.LEGION_CLASS) == 0

    def test_totals_by_kind(self):
        metrics = MetricsRegistry()
        bump(metrics, comp("a"), 5)
        bump(metrics, comp("b"), 9)
        assert metrics.totals_by_kind()[ComponentKind.BINDING_AGENT] == 14

    def test_loads(self):
        metrics = MetricsRegistry()
        for name, n in [("a", 1), ("b", 5), ("c", 3)]:
            bump(metrics, comp(name), n)
        assert metrics.loads(ComponentKind.BINDING_AGENT) == {"a": 1, "b": 5, "c": 3}

    def test_reset(self):
        metrics = MetricsRegistry()
        metrics.incr(comp("a"), "requests")
        metrics.retire(comp("a"))
        metrics.incr(comp("b"), "requests")
        metrics.reset()
        assert metrics.get(comp("b")) == 0
        assert metrics.snapshot() == {}
        assert metrics.totals_by_kind() == {}

    def test_retire_keeps_the_totals_and_drops_the_entry(self):
        metrics = MetricsRegistry()
        app = ComponentKind.APPLICATION
        bump(metrics, comp("a", app), 4)
        metrics.incr(comp("a", app), MetricsRegistry.SHED)
        bump(metrics, comp("b", app), 2)
        totals = metrics.totals_by_kind()
        metrics.retire(comp("a", app))
        metrics.retire(comp("a", app))  # idempotent
        metrics.retire(comp("never-counted", app))
        assert metrics.totals_by_kind() == totals == {app: 6}
        assert metrics.loads(app) == {"b": 2}
        assert metrics.snapshot(None, MetricsRegistry.SHED) == {"application:b": 0}
        assert metrics.get(comp("a", app)) == 0
        bump(metrics, comp("a", app), 1)  # counted again: a new entry
        assert metrics.totals_by_kind() == {app: 7}


    def test_first_count_order_spans_events(self):
        metrics = MetricsRegistry()
        a, b, c = comp("a"), comp("b"), comp("c")
        metrics.incr(a, MetricsRegistry.SHED)  # a is first counted by a shed
        bump(metrics, b, 2)
        metrics.incr(a, MetricsRegistry.REQUESTS)
        metrics.incr(c, MetricsRegistry.SHED)
        kind = ComponentKind.BINDING_AGENT
        assert list(metrics.labelled_counts().items()) == [
            ("binding-agent:a", 1), ("binding-agent:b", 2),
        ]
        assert list(metrics.labelled_counts(MetricsRegistry.SHED).items()) == [
            ("binding-agent:a", 1), ("binding-agent:c", 1),
        ]
        assert list(metrics.snapshot(event=MetricsRegistry.SHED).items()) == [
            ("binding-agent:a", 1), ("binding-agent:b", 0), ("binding-agent:c", 1),
        ]
        assert list(metrics.loads(kind).items()) == [("a", 1), ("b", 2), ("c", 0)]
        assert metrics.totals_by_kind() == {kind: 3}
        assert metrics.max_by_kind(kind) == 2
        assert metrics.get(c) == 0
        assert metrics.loads(kind, "never") == {"a": 0, "b": 0, "c": 0}

WARM_CYCLES = 8


@pytest.mark.parametrize("deactivate", [False, True], ids=["active", "inert"])
def test_a_deleted_object_leaves_no_metrics_entry(fresh_legion, deactivate):
    """Create -> Increment (-> Deactivate) -> Delete, N times: the object's
    entry is retired whether its Delete found it Active (the host's
    KillObject) or Inert (the magistrate, with no process to kill), and
    retiring it keeps ``totals_by_kind``."""
    system, cls = fresh_legion
    metrics = system.services.metrics
    app = ComponentKind.APPLICATION

    def cycle():
        loid = system.call(cls.loid, "Create", {}).loid
        system.call(loid, "Increment", 1)
        if deactivate:
            magistrate = system.call(cls.loid, "GetRow", loid).current_magistrates[0]
            system.call(magistrate, "Deactivate", loid)
        served = metrics.totals_by_kind()[app]
        system.call(cls.loid, "Delete", loid)
        assert metrics.totals_by_kind()[app] == served
        assert metrics.get(ComponentId(app, str(loid))) == 0

    for _ in range(WARM_CYCLES):  # placement has visited every host by now
        cycle()
    entries = sorted(metrics.snapshot())
    for _ in range(20):
        cycle()
    assert sorted(metrics.snapshot()) == entries
    assert metrics.totals_by_kind()[app] == WARM_CYCLES + 20


class TestSeriesRecorder:
    def test_table_rendering(self):
        rec = SeriesRecorder(x_label="n")
        rec.add(1, a=10, b=0.5)
        rec.add(2, a=20)
        table = rec.to_table(title="T")
        assert "T" in table
        assert "n" in table and "a" in table and "b" in table
        assert "-" in table  # missing b at n=2

    def test_series_alignment(self):
        rec = SeriesRecorder()
        rec.add(1, a=10)
        rec.add(2, b=5)
        assert rec.series("a") == [10, None]
        assert rec.series("b") == [None, 5]
        assert rec.series_names() == ["a", "b"]

    def test_linear_slope(self):
        rec = SeriesRecorder()
        for x in (1, 2, 3, 4):
            rec.add(x, y=3 * x + 1)
        assert rec.slope("y") == pytest.approx(3.0)

    def test_log_log_slope_recovers_exponent(self):
        rec = SeriesRecorder()
        for x in (2, 4, 8, 16):
            rec.add(x, y=5 * x**2)
        assert rec.slope("y", log_log=True) == pytest.approx(2.0, abs=1e-6)

    def test_flat_series_log_log_slope_zero(self):
        rec = SeriesRecorder()
        for x in (2, 4, 8):
            rec.add(x, y=7)
        assert rec.slope("y", log_log=True) == pytest.approx(0.0, abs=1e-9)

    def test_slope_needs_two_points(self):
        rec = SeriesRecorder()
        rec.add(1, y=1)
        with pytest.raises(ValueError):
            rec.slope("y")


def test_every_counter_dataclass_is_listed():
    assert set(Counters.__subclasses__()) == set(COUNTERS)


@pytest.mark.parametrize("cls", COUNTERS, ids=lambda cls: cls.__name__)
def test_reset_puts_every_field_back_to_its_declared_default(cls):
    stats = cls()
    for f in fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            value = {key: count + 1 for key, count in value.items()}
        else:
            value += 1
        setattr(stats, f.name, value)
    fresh = cls()
    assert all(getattr(stats, f.name) != getattr(fresh, f.name) for f in fields(stats))
    stats.reset()
    assert stats == fresh
