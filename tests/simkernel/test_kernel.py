"""Unit tests for the discrete-event kernel and generator processes."""

import pytest

from repro.errors import InvalidArgument, ProcessKilled, SimulationDeadlock, SimulationError
from repro.simkernel.futures import SimFuture
from repro.simkernel.kernel import SimKernel, Timeout


class TestScheduling:
    def test_events_run_in_time_order(self, kernel):
        order = []
        kernel.post(5.0, lambda: order.append("late"))
        kernel.post(1.0, lambda: order.append("early"))
        kernel.run()
        assert order == ["early", "late"]
        assert kernel.now == 5.0

    def test_equal_times_run_in_schedule_order(self, kernel):
        order = []
        for i in range(5):
            kernel.post(1.0, lambda i=i: order.append(i))
        kernel.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.post(-0.1, lambda: None)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_non_finite_delay_rejected(self, kernel, delay):
        """NaN passed the old ``delay < 0`` check and broke heap order."""
        with pytest.raises(SimulationError, match="non-finite timeout"):
            Timeout(delay)
        with pytest.raises(SimulationError, match=f"delay={delay}"):
            kernel.post(delay, lambda: None)
        with pytest.raises(SimulationError, match=f"delay={delay}"):
            kernel.deadline(SimFuture("f"), delay, lambda: None)
        assert kernel.pending_events == 0

    def test_cancellation(self, kernel):
        """Settling a deadline's future is what cancels it."""
        hits = []
        fut = SimFuture()
        kernel.deadline(fut, 1.0, lambda: hits.append("x"))
        fut.set_result(None)
        kernel.run()
        assert hits == []
        assert kernel.now == 0.0  # a settled deadline never moves the clock

    def test_run_until_stops_the_clock(self, kernel):
        hits = []
        kernel.post(10.0, lambda: hits.append("x"))
        kernel.run(until=5.0)
        assert kernel.now == 5.0
        assert hits == []
        kernel.run()
        assert hits == ["x"]

    def test_run_until_a_past_time_neither_rewinds_nor_runs(self, kernel):
        hits = []
        kernel.post(5.0, lambda: None)
        kernel.run()
        kernel.post(10.0, lambda: hits.append("x"))
        kernel.run(until=2.0)
        assert kernel.now == 5.0
        assert hits == []

    def test_max_events_guard(self, kernel):
        def rearm():
            kernel.post(1.0, rearm)

        kernel.post(1.0, rearm)
        with pytest.raises(SimulationError):
            kernel.run(max_events=100)


class TestRunArguments:
    """The loop's inputs fail at the boundary, naming the parameter, with
    nothing run: ``until=inf`` used to move the clock to inf, ``nan`` was
    ignored, and a negative, fractional or boolean ``max_events`` turned
    the runaway valve off (``-1`` ran all 100 ticks)."""

    @staticmethod
    def ticking(kernel, ticks=100):
        def tick(n):
            if n:
                kernel.post(1.0, tick, n - 1)

        kernel.post(1.0, tick, ticks - 1)

    @pytest.mark.parametrize("until", [float("inf"), float("nan")])
    def test_a_non_finite_until_is_refused(self, kernel, until):
        self.ticking(kernel)
        with pytest.raises(InvalidArgument, match=f"until={until!r}"):
            kernel.run(until=until)
        assert (kernel.now, kernel.events_executed) == (0.0, 0)

    @pytest.mark.parametrize("max_events", [-1, 2.5, True, "10"])
    def test_a_max_events_that_is_not_a_count_is_refused(self, kernel, max_events):
        self.ticking(kernel)
        with pytest.raises(InvalidArgument, match=f"max_events={max_events!r}"):
            kernel.run(max_events=max_events)
        with pytest.raises(InvalidArgument, match=f"max_events={max_events!r}"):
            kernel.run_until_complete(SimFuture(), max_events=max_events)
        assert (kernel.now, kernel.events_executed) == (0.0, 0)

    def test_an_until_in_the_past_stays_legal(self, kernel):
        self.ticking(kernel)
        kernel.run(until=float("-inf"))
        assert (kernel.now, kernel.events_executed) == (0.0, 0)
        kernel.run(until=50.0, max_events=50)
        assert (kernel.now, kernel.events_executed) == (50.0, 50)


class TestProcesses:
    def test_timeout_advances_clock(self, kernel):
        def proc():
            yield Timeout(3.0)
            return kernel.now

        fut = kernel.spawn(proc())
        kernel.run()
        assert fut.result() == 3.0

    def test_return_value_becomes_future_result(self, kernel):
        def proc():
            yield Timeout(1.0)
            return "done"

        assert kernel.run_until_complete(kernel.spawn(proc())) == "done"

    def test_yielding_future_suspends_until_resolved(self, kernel):
        gate = SimFuture("gate")

        def proc():
            value = yield gate
            return value * 2

        fut = kernel.spawn(proc())
        kernel.post(5.0, lambda: gate.set_result(21))
        kernel.run()
        assert fut.result() == 42

    def test_failed_future_raises_inside_process(self, kernel):
        gate = SimFuture()

        def proc():
            try:
                yield gate
            except ValueError as exc:
                return f"caught {exc}"

        fut = kernel.spawn(proc())
        kernel.post(1.0, lambda: gate.set_exception(ValueError("inner")))
        kernel.run()
        assert fut.result() == "caught inner"

    def test_uncaught_exception_fails_process_future(self, kernel):
        def proc():
            yield Timeout(1.0)
            raise RuntimeError("unhandled")

        fut = kernel.spawn(proc())
        kernel.run()
        assert fut.failed()
        with pytest.raises(RuntimeError):
            fut.result()

    def test_child_generator_awaited(self, kernel):
        def child():
            yield Timeout(2.0)
            return 10

        def parent():
            value = yield child()
            return value + 1

        assert kernel.run_until_complete(kernel.spawn(parent())) == 11

    def test_yield_none_reschedules(self, kernel):
        steps = []

        def proc():
            steps.append("a")
            yield None
            steps.append("b")

        kernel.spawn(proc())
        kernel.run()
        assert steps == ["a", "b"]

    def test_unsupported_yield_fails(self, kernel):
        def proc():
            yield 12345

        fut = kernel.spawn(proc())
        kernel.run()
        assert fut.failed()
        assert isinstance(fut.exception(), SimulationError)

    def test_spawn_requires_generator(self, kernel):
        with pytest.raises(SimulationError):
            kernel.spawn(lambda: None)  # type: ignore[arg-type]

    def test_kill_process(self, kernel):
        cleaned = []

        def proc():
            try:
                yield Timeout(100.0)
            except ProcessKilled:
                cleaned.append(True)
                raise

        process = kernel.spawn(proc())
        kernel.post(1.0, lambda: process.kill("stop"))
        kernel.run()
        assert cleaned == [True]
        assert process.failed()

    def test_deadlock_detected(self, kernel):
        never = SimFuture()

        def proc():
            yield never

        fut = kernel.spawn(proc())
        with pytest.raises(SimulationDeadlock):
            kernel.run_until_complete(fut)

    def test_concurrent_processes_interleave_by_time(self, kernel):
        log = []

        def proc(name, delay):
            yield Timeout(delay)
            log.append(name)

        kernel.spawn(proc("slow", 5.0))
        kernel.spawn(proc("fast", 1.0))
        kernel.run()
        assert log == ["fast", "slow"]

    def test_determinism_across_runs(self):
        def build_and_run():
            k = SimKernel()
            log = []

            def proc(name, delay):
                yield Timeout(delay)
                log.append((name, k.now))

            for i in range(10):
                k.spawn(proc(f"p{i}", (i * 7) % 5 + 0.5))
            k.run()
            return log

        assert build_and_run() == build_and_run()
