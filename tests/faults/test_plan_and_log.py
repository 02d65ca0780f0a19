"""FaultPlan generation and FaultLog reconciliation."""

import json
import random
import re

import pytest

from repro.errors import InvalidArgument
from repro.faults.log import FaultLog
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan

HOSTS = [2, 3, 5]
SITES = ["east", "west"]
OBJECTS = ["O<9.1>", "O<9.2>", "O<9.3>"]


def _plan(seed=4, intensity=5.0, horizon=2_000.0, **kw):
    return FaultPlan.generate(
        random.Random(seed),
        horizon=horizon,
        intensity=intensity,
        hosts=kw.pop("hosts", HOSTS),
        sites=kw.pop("sites", SITES),
        objects=kw.pop("objects", OBJECTS),
        **kw,
    )


class TestFaultPlan:
    def test_same_seed_same_plan(self):
        assert _plan(seed=4).events == _plan(seed=4).events

    def test_different_seeds_differ(self):
        assert _plan(seed=4).events != _plan(seed=5).events

    def test_zero_intensity_is_empty(self):
        assert len(_plan(intensity=0.0)) == 0

    def test_events_ordered_and_inside_horizon(self):
        plan = _plan()
        times = [e.time for e in plan]
        assert times == sorted(times)
        assert all(0.0 < t < 2_000.0 for t in times)

    def test_each_host_crashes_at_most_once(self):
        plan = _plan(intensity=50.0)
        crashed = [e.target for e in plan if e.kind is FaultKind.HOST_CRASH]
        assert len(crashed) == len(set(crashed))
        assert set(crashed) <= {str(h) for h in HOSTS}

    def test_empty_pools_disable_kinds(self):
        plan = _plan(intensity=20.0, hosts=[], objects=[], sites=["east"])
        kinds = {e.kind for e in plan}
        assert FaultKind.HOST_CRASH not in kinds
        assert FaultKind.OBJECT_CRASH not in kinds
        assert FaultKind.PARTITION not in kinds
        assert kinds <= {FaultKind.LINK_DEGRADE}

    def test_partition_targets_are_distinct_site_pairs(self):
        plan = _plan(intensity=50.0)
        for event in plan:
            if event.kind is FaultKind.PARTITION:
                a, b = event.target.split("|")
                assert a != b
                assert {a, b} <= set(SITES)

@pytest.mark.parametrize(
    "field, value, legal",
    [
        ("time", -5.0, "[0, inf)"),
        ("time", float("nan"), "[0, inf)"),
        ("time", float("inf"), "[0, inf)"),
        ("duration", -1.0, "[0, inf)"),
        ("duration", float("nan"), "[0, inf)"),
        ("severity", -0.1, "[0, 1]"),
        ("severity", 1.5, "[0, 1]"),
        ("severity", float("nan"), "[0, 1]"),
    ],
)
def test_a_fault_event_out_of_range_is_refused(field, value, legal):
    """Each of these constructed without complaint."""
    kwargs = {"time": 10.0, "kind": FaultKind.LINK_DEGRADE, "target": "wide-area"}
    kwargs[field] = value
    message = re.escape(f"FaultEvent {field}={value!r}: must be in {legal}")
    with pytest.raises(InvalidArgument, match=message):
        FaultEvent(**kwargs)


class TestFaultLog:
    def test_recovery_pairs_with_latest_earlier_loss(self):
        log = FaultLog()
        log.inject(10.0, "object-lost", "O<1.1>")
        log.inject(50.0, "object-crash", "O<1.1>")
        log.observe(70.0, "object-recovered", "O<1.1>")
        assert log.recovery_times() == [("O<1.1>", 20.0)]

    def test_unmatched_recovery_is_dropped(self):
        log = FaultLog()
        log.observe(70.0, "object-recovered", "O<1.1>")
        assert log.recovery_times() == []

    def test_lost_vs_recovered_sets(self):
        log = FaultLog()
        log.inject(1.0, "object-lost", "a")
        log.inject(2.0, "object-crash", "b")
        log.inject(3.0, "host-crash", "7")  # not an object loss
        log.observe(4.0, "object-recovered", "a")
        assert set(log.lost_objects()) == {"a", "b"}
        assert set(log.recovered_objects()) == {"a"}

    def test_summary_and_json_roundtrip(self):
        log = FaultLog()
        log.inject(1.0, "object-lost", "a", "host 2")
        log.observe(5.0, "object-recovered", "a")
        summary = log.summary()
        assert summary["objects_lost"] == 1
        assert summary["objects_recovered"] == 1
        assert summary["recovery_time_mean"] == 4.0
        blob = json.dumps(log.to_json(), sort_keys=True)
        assert "object-recovered" in blob

    def test_count_is_the_ledgers_rescanned(self):
        log = FaultLog()
        for n in range(5):
            log.observe(float(n), "request-shed", "application:x", "queue full")
        log.inject(6.0, "object-lost", "a")
        log.observe(7.0, "object-recovered", "a")
        for kind in ("request-shed", "object-lost", "object-recovered", "host-crash"):
            rescanned = sum(i.kind == kind for i in log.injected + log.observed)
            assert log.count(kind) == rescanned
        assert log.count("request-shed") == 5
        assert log.observed[0] == (0.0, "request-shed", "application:x", "queue full")
