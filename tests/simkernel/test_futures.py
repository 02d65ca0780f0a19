"""Unit tests for SimFuture and its combinators."""

import pytest

from repro.errors import FutureError
from repro.simkernel.futures import (
    SimFuture,
    gather,
    k_of,
    single_flight,
)
from repro.simkernel.kernel import SimKernel, Timeout


class TestSimFuture:
    def test_pending_result_raises(self):
        fut = SimFuture("x")
        assert not fut.done()
        with pytest.raises(FutureError):
            fut.result()

    def test_set_result(self):
        fut = SimFuture()
        fut.set_result(42)
        assert fut.done()
        assert not fut.failed()
        assert fut.result() == 42

    def test_set_exception_reraises(self):
        fut = SimFuture()
        fut.set_exception(ValueError("boom"))
        assert fut.done()
        assert fut.failed()
        with pytest.raises(ValueError, match="boom"):
            fut.result()

    def test_double_resolution_rejected(self):
        fut = SimFuture()
        fut.set_result(1)
        with pytest.raises(FutureError):
            fut.set_result(2)
        with pytest.raises(FutureError):
            fut.set_exception(ValueError())

    def test_set_exception_requires_exception(self):
        fut = SimFuture()
        with pytest.raises(FutureError):
            fut.set_exception("not an exception")  # type: ignore[arg-type]

    def test_callback_after_resolution_runs_immediately(self):
        fut = SimFuture()
        fut.set_result(5)
        seen = []
        fut.add_done_callback(lambda f: seen.append(f.result()))
        assert seen == [5]

    def test_callbacks_run_in_registration_order(self):
        fut = SimFuture()
        order = []
        fut.add_done_callback(lambda f: order.append("a"))
        fut.add_done_callback(lambda f: order.append("b"))
        fut.set_result(None)
        assert order == ["a", "b"]

    def test_then_chains_value(self):
        fut = SimFuture()
        fut.set_result(3)
        out = fut.then(lambda v: v * 2)
        assert out.result() == 6

    def test_then_propagates_failure(self):
        fut = SimFuture()
        fut.set_exception(KeyError("k"))
        out = fut.then(lambda v: v)
        assert out.failed()
        assert isinstance(out.exception(), KeyError)

    def test_then_captures_mapper_exception(self):
        fut = SimFuture()
        fut.set_result(1)
        out = fut.then(lambda v: 1 / 0)
        assert out.failed()
        assert isinstance(out.exception(), ZeroDivisionError)


class TestGather:
    def test_empty(self):
        assert gather([]).result() == []

    def test_order_preserved_regardless_of_resolution_order(self):
        futs = [SimFuture(str(i)) for i in range(3)]
        out = gather(futs)
        futs[2].set_result("c")
        futs[0].set_result("a")
        futs[1].set_result("b")
        assert out.result() == ["a", "b", "c"]

    def test_first_failure_fails_gather(self):
        futs = [SimFuture(), SimFuture()]
        out = gather(futs)
        futs[1].set_exception(RuntimeError("dead"))
        assert out.failed()
        futs[0].set_result(1)  # late success is ignored
        with pytest.raises(RuntimeError):
            out.result()


class TestKOf:
    def test_k_successes_resolve(self):
        futs = [SimFuture() for _ in range(4)]
        out = k_of(futs, 2)
        futs[3].set_result("d")
        assert not out.done()
        futs[0].set_result("a")
        assert out.result() == [(3, "d"), (0, "a")]

    def test_too_many_failures_fail(self):
        futs = [SimFuture() for _ in range(3)]
        out = k_of(futs, 2)
        futs[0].set_exception(IOError())
        assert not out.done()
        futs[1].set_exception(IOError())
        assert out.failed()

    def test_k_zero_trivially_done(self):
        assert k_of([SimFuture()], 0).result() == []

    def test_k_exceeding_inputs_fails_immediately(self):
        assert k_of([SimFuture()], 2).failed()


class TestSingleFlight:
    @staticmethod
    def _callers(n, outcome):
        """``n`` concurrent callers of one keyed body that takes 5 ms."""
        kernel, table, runs = SimKernel(), {}, []

        def body():
            runs.append(kernel.now)
            yield Timeout(5.0)
            if isinstance(outcome, BaseException):
                raise outcome
            return outcome

        def caller():
            value = yield from single_flight(table, "k", "flight k", body())
            return value

        def wave():
            futs = [kernel.spawn(caller()) for _ in range(n)]
            kernel.run()
            return futs

        return table, runs, wave

    def test_concurrent_callers_run_the_body_once_and_share_its_value(self):
        table, runs, wave = self._callers(4, "fresh")
        assert [f.result() for f in wave()] == ["fresh"] * 4
        assert runs == [0.0]
        assert table == {}  # cleared: the next caller flies again
        assert [f.result() for f in wave()] == ["fresh"] * 4
        assert runs == [0.0, 5.0]

    def test_a_raising_body_fails_every_caller_with_the_same_exception(self):
        boom = IOError("boom")
        table, runs, wave = self._callers(3, boom)
        assert [f.exception() for f in wave()] == [boom] * 3
        assert runs == [0.0]
        assert table == {}
        wave()
        assert runs == [0.0, 5.0]

    def test_keys_fly_independently(self):
        kernel, table, runs = SimKernel(), {}, []

        def body(key):
            runs.append(key)
            yield Timeout(1.0)
            return key.upper()

        futs = [
            kernel.spawn(single_flight(table, key, key, body(key)))
            for key in ("a", "b", "a")
        ]
        kernel.run()
        assert [f.result() for f in futs] == ["A", "B", "A"]
        assert runs == ["a", "b"]
