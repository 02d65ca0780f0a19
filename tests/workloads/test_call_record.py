"""Every traffic driver keeps one record shape: a slotted CallRecord.

A scenario replay, an open-loop run and a closed-loop run each stamp the
same five slots, readable by attribute or by key, and nothing else.
"""

import pytest

from repro.scenarios import ScenarioDriver, compile_events, deploy, get_scenario
from repro.workloads.generators import CallRecord, OpenLoopDriver, TrafficDriver

FIELDS = ("issue", "done", "outcome", "phase", "kind")
SETTLED = {"ok", "shed", "denied", "failed"}


class KeepingTrafficDriver(TrafficDriver):
    """A closed loop that keeps the records its driver throws away."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.records = []

    def _invoke_once(self, call, rec, what):
        self.records.append(rec)
        yield from super()._invoke_once(call, rec, what)


def flash_crowd_records():
    spec = get_scenario("flash-crowd")
    deployment = deploy(spec, 0)
    driver = ScenarioDriver(deployment, compile_events(spec, 0))
    deployment.system.kernel.run_until_complete(driver.start())
    phases = {phase.name for phase in spec.phases}
    assert {r.phase for r in driver.records} <= phases
    assert {r.kind for r in driver.records} <= set(spec.mix.kinds)
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
    driver = KeepingTrafficDriver(
        system.kernel,
        [system.new_client("c")],
        choose_target=lambda _c: target,
        method="Get",
        calls_per_client=5,
    )
    stats = system.kernel.run_until_complete(driver.start())
    assert stats.calls_issued == len(driver.records) == 5
    assert all(r.phase is None and r.kind == "Get" for r in driver.records)
    return driver.records


@pytest.mark.parametrize("driver", ["flash-crowd", "open-loop", "traffic"])
def test_every_driver_keeps_one_slotted_record(fresh_legion, driver):
    if driver == "flash-crowd":
        records = flash_crowd_records()
    else:
        system, cls = fresh_legion
        target = system.call(cls.loid, "Create", {}).loid
        keep = open_loop_records if driver == "open-loop" else traffic_records
        records = keep(system, target)
    assert records
    for r in records:
        assert type(r) is CallRecord and not hasattr(r, "__dict__")
        assert [r[name] for name in FIELDS] == [getattr(r, name) for name in FIELDS]
        with pytest.raises(KeyError):
            _ = r["tenant"]
        assert r.outcome in SETTLED
        assert r.done >= r.issue
