"""``SimKernel.every``: the one periodic loop, and what a kill does to it."""

import pytest

from repro.errors import LegionError, ProcessKilled, SimulationError
from repro.simkernel.futures import SimFuture, single_flight
from repro.simkernel.kernel import SimKernel, Timeout


def _rounds_at(kernel, first, interval, step_body, until):
    """Start an ``every`` loop and return the times its rounds began."""
    began = []

    def step():
        began.append(kernel.now)
        return step_body()

    proc = kernel.every("loop", first, lambda: interval, step)
    kernel.run(until=until)
    proc.kill()
    kernel.run()
    return began, proc


def test_first_delay_then_interval_after_each_round_ends():
    kernel = SimKernel()

    def body():
        yield Timeout(3.0)  # a round that takes 3 ms

    began, proc = _rounds_at(kernel, 5.0, 10.0, body, until=40.0)
    assert began == [5.0, 18.0, 31.0]
    assert isinstance(proc.exception(), ProcessKilled)


def test_a_zero_first_delay_runs_the_first_round_at_once():
    kernel = SimKernel()
    began, _proc = _rounds_at(kernel, 0.0, 10.0, lambda: None, until=25.0)
    assert began == [0.0, 10.0, 20.0]
    # No Timeout(0) before the first round: spawn's step is the only event
    # ahead of it, and each later round costs one.
    assert kernel.events_executed == 1 + 2 + 1 + 1  # + kill + its stale wake


def test_a_legion_error_ends_only_its_round():
    kernel = SimKernel()

    def body():
        yield Timeout(1.0)
        raise LegionError("fault mid-round")

    began, proc = _rounds_at(kernel, 0.0, 10.0, body, until=30.0)
    assert began == [0.0, 11.0, 22.0]
    assert isinstance(proc.exception(), ProcessKilled)


def test_an_error_that_is_not_a_legion_error_ends_the_loop():
    kernel = SimKernel()

    def step():
        raise ValueError("a bug, not a fault")

    proc = kernel.every("loop", 0.0, lambda: 10.0, step)
    kernel.run()
    assert isinstance(proc.exception(), ValueError)


def test_a_kill_reaches_a_round_parked_on_a_future_through_except_legion_error():
    kernel = SimKernel()
    never = SimFuture("never")
    survived = []

    def body():
        try:
            yield never
        except LegionError:  # the pattern that used to swallow stop()
            survived.append(kernel.now)

    proc = kernel.every("loop", 0.0, lambda: 10.0, body)
    kernel.run(until=1.0)
    proc.kill()
    kernel.run()
    assert survived == []
    assert isinstance(proc.exception(), ProcessKilled)
    assert kernel.pending_events == 0


def test_riders_of_a_killed_single_flight_leader_get_an_error_they_can_catch():
    """The kill stays with the leader; a rider -- another process -- sees a
    SimulationError (a LegionError) and carries on."""
    kernel = SimKernel()
    table, gate = {}, SimFuture("gate")
    seen = []

    def body():
        yield gate
        return "never"

    def leader():
        yield from single_flight(table, "k", "flight k", body())

    def rider():
        try:
            yield from single_flight(table, "k", "flight k", body())
        except LegionError as exc:
            seen.append(exc)
        return "carried on"

    lead = kernel.spawn(leader())
    ride = kernel.spawn(rider())
    kernel.run()
    lead.kill()
    kernel.run()
    assert isinstance(lead.exception(), ProcessKilled)
    assert ride.result() == "carried on"
    assert len(seen) == 1 and type(seen[0]) is SimulationError
    assert table == {}


def test_process_killed_is_not_an_exception():
    assert not issubclass(ProcessKilled, Exception)
    with pytest.raises(ProcessKilled):
        try:
            raise ProcessKilled("stop")
        except Exception:  # noqa: BLE001 - the point: it does not match
            pytest.fail("a kill was caught as an Exception")
