"""Every traffic driver keeps one call log, held as columns.

A scenario replay, an open-loop run and a closed-loop run each write the
calls they issue into one ``CallLog``; ``driver.records`` iterates it as
light views, in issue order, whose five fields read by attribute or by
key and nothing else.  The summaries the experiments print read the
columns; each must equal the same summary computed from the views.
"""

import numpy as np
import pytest

from repro.experiments.common import settlement
from repro.experiments.e18_scenarios import _kind_counts, _phase_outcomes
from repro.faults.log import FaultLog
from repro.flow.config import FlowConfig
from repro.metrics.counters import ComponentKind
from repro.scenarios import ScenarioDriver, compile_events, deploy, get_scenario
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import SerialServiceImpl
from repro.workloads.calllog import FIRST_ROWS, CallLog
from repro.workloads.generators import OpenLoopDriver, TrafficDriver

FIELDS = ("issue", "done", "outcome", "phase", "kind")
SETTLED = {"ok", "shed", "denied", "failed"}


def replay(name):
    spec = get_scenario(name)
    deployment = deploy(spec, 0)
    driver = ScenarioDriver(deployment, compile_events(spec, 0))
    deployment.system.kernel.run_until_complete(driver.start())
    return driver


def flash_crowd_records():
    driver = replay("flash-crowd")
    spec = driver.spec
    assert {r.phase for r in driver.records} <= {phase.name for phase in spec.phases}
    assert {r.kind for r in driver.records} <= set(spec.mix.kinds)
    # Every request of the stream was issued once: the order is a permutation.
    assert sorted(driver.log.order.tolist()) == list(range(driver.plan.requests))
    return driver.records


def open_loop_records(system, target):
    driver = OpenLoopDriver(
        system.kernel,
        [system.new_client(f"o{i}") for i in range(2)],
        choose_call=lambda _c: (target, "Increment", (1,)),
        schedule=[(10.0, 2.0)],
    )
    system.kernel.run_until_complete(driver.start())
    assert all(r.phase is None and r.kind == "Increment" for r in driver.records)
    return driver.records


def traffic_records(system, target):
    client = system.new_client("c")
    driver = TrafficDriver(
        system.kernel,
        [client],
        choose_call=lambda _c: (target, "Get", ()),
        calls_per_client=5,
    )
    stats = system.kernel.run_until_complete(driver.start())
    assert stats.calls_issued == len(driver.records) == 5
    # A closed loop's phase of a row is the client that issued it.
    assert all(r.phase == str(client.loid) and r.kind == "Get" for r in driver.records)
    return driver.records


@pytest.mark.parametrize("driver", ["flash-crowd", "open-loop", "traffic"])
def test_every_driver_keeps_one_call_log(fresh_legion, driver):
    if driver == "flash-crowd":
        records = flash_crowd_records()
    else:
        system, cls = fresh_legion
        target = system.call(cls.loid, "Create", {}).loid
        keep = open_loop_records if driver == "open-loop" else traffic_records
        records = keep(system, target)
    assert type(records) is CallLog and len(records) == len(list(records))
    issued = []
    for r in records:
        assert not hasattr(r, "__dict__")
        assert [r[name] for name in FIELDS] == [getattr(r, name) for name in FIELDS]
        assert all(type(r[name]) is float for name in ("issue", "done"))
        with pytest.raises(KeyError):
            _ = r["tenant"]
        with pytest.raises(AttributeError):
            _ = r.tenant
        assert r.outcome in SETTLED
        assert r.done >= r.issue
        issued.append(r.issue)
    assert issued == sorted(issued)  # iteration is in issue order


def test_a_pending_call_reads_as_pending():
    log = CallLog(("Ping",), None)
    log.n = 1
    log.issue[0] = 5.0
    (call,) = log
    assert (call.issue, call.done, call.outcome, call.kind, call.phase) == (
        5.0, None, "pending", "Ping", None,
    )
    assert log.outcome_counts()["pending"] == 1


# ------------------------------------------------------------ the differential


def outcome_counts_of(records, names):
    counts = dict.fromkeys(names, 0)
    for r in records:
        counts[r.outcome] += 1
    return counts


def phase_goodput_of(driver):
    """``ScenarioDriver.phase_goodput`` as it read one record at a time."""
    windows = {}
    t0 = driver.t_base or 0.0
    for phase in driver.spec.phases:
        windows[phase.name] = [t0, t0 + phase.duration]
        t0 += phase.duration
    capacity = driver.spec.capacity_per_ms()
    rows = []
    for name, (lo, hi) in windows.items():
        ok = [r for r in driver.records if r.outcome == "ok" and lo <= r.issue < hi]
        latencies = sorted(r.done - r.issue for r in ok)
        p99 = latencies[int(0.99 * (len(latencies) - 1))] if latencies else 0.0
        goodput = len(ok) / ((hi - lo) * capacity) if capacity else 0.0
        rows.append(
            {"phase": name, "ok": len(ok), "goodput_x": round(goodput, 4), "p99": round(p99, 2)}
        )
    return rows


def phase_outcomes_of(driver):
    out = {}
    for r in driver.records:
        bucket = out.setdefault(
            r.phase, {"ok": 0, "shed": 0, "denied": 0, "failed": 0, "pending": 0}
        )
        bucket[r.outcome] += 1
    return out


def kind_counts_of(driver):
    counts = {}
    for r in driver.records:
        counts[r.kind] = counts.get(r.kind, 0) + 1
    return counts


@pytest.mark.parametrize("name", ["flash-crowd", "multi-tenant"])
def test_replay_summaries_read_the_columns_as_the_views_do(name):
    driver = replay(name)
    reported = ("ok", "shed", "denied", "failed", "pending")
    counts = driver.outcome_counts()
    assert list(counts) == list(reported)
    assert counts == outcome_counts_of(driver.records, reported)
    assert counts["ok"] and (name == "flash-crowd" or counts["denied"])
    assert driver.phase_goodput() == phase_goodput_of(driver)
    assert _phase_outcomes(driver) == phase_outcomes_of(driver)
    assert list(_phase_outcomes(driver)) == list(phase_outcomes_of(driver))
    assert _kind_counts(driver) == kind_counts_of(driver)
    assert list(_kind_counts(driver)) == list(kind_counts_of(driver))


def test_open_loop_settlement_reads_the_columns_as_the_views_do():
    """A shed storm (E15's recipe, small): more calls than a log's first
    columns hold, so the log grows while calls are in flight."""
    system = LegionSystem.build(
        [SiteSpec("main", hosts=2)],
        seed=21,
        flow=FlowConfig(
            capacity=1,
            queue_limit=2,
            service_estimate=2.0,
            admit_kinds=frozenset({ComponentKind.APPLICATION}),
        ),
    )
    fault_log = system.services.fault_log = FaultLog()
    cls = system.create_class(
        "SerialService", factory=lambda: SerialServiceImpl(service_time=2.0)
    )
    binding = system.create_instance(cls.loid)
    clients = [system.new_client(f"c{i}") for i in range(3)]
    driver = OpenLoopDriver(
        system.kernel,
        clients,
        choose_call=lambda _c: (binding.loid, "Work", ()),
        schedule=[(200.0, 1.0)],
        timeout=50.0,
    )
    system.kernel.run_until_complete(driver.start())
    system.kernel.run()
    log = driver.log
    assert len(log) == driver.stats.calls_issued > 2 * FIRST_ROWS
    assert log.capacity >= len(log) and len(log.issue) == log.capacity
    settled = settlement(system, clients, log, fault_log)
    assert settled["outcomes"] == outcome_counts_of(log, ("ok", "shed", "failed"))
    assert settled["issued"] == len(list(log))
    assert settled["outcomes"]["shed"] > 0 and settled["outcomes"]["ok"] > 0
    assert log.outcome_counts() == outcome_counts_of(
        log, ("ok", "shed", "denied", "failed", "pending")
    )
    issue, done = log.ok_times()
    ok = [r for r in log if r.outcome == "ok"]
    assert issue.tolist() == [r.issue for r in ok]
    assert np.array_equal(done - issue, [r.done - r.issue for r in ok])
