"""Fast-path kernel behaviour: cancellation accounting, heap compaction,
and the future-resume trampoline.

These pin down the invariants the tuple-heap/trampoline redesign must
keep: ``pending_events`` never counts cancelled placeholders, compaction
is invisible to code running inside the event loop, and trampolined
resumes preserve event order and the ``events_executed`` count.
"""

import pytest

from repro.errors import SimulationError
from repro.simkernel.futures import SimFuture, completed
from repro.simkernel.kernel import SimKernel, Timeout


class TestCancellationAccounting:
    def test_pending_events_excludes_cancelled(self):
        kernel = SimKernel()
        tickets = [kernel.schedule(1.0, lambda: None) for _ in range(3)]
        assert kernel.pending_events == 3
        kernel.cancel(tickets[0])
        assert kernel.pending_events == 2
        kernel.cancel(tickets[0])  # a repeat before any sweep: no-op
        assert kernel.pending_events == 2

    def test_cancel_after_run_does_not_go_negative(self):
        kernel = SimKernel()
        ticket = kernel.schedule(1.0, lambda: None)
        kernel.run()
        kernel.cancel(ticket)  # stray seq: the event already ran
        assert kernel.pending_events == 0

    def test_late_cancel_leaves_the_books_alone(self):
        """Regression: a cancel after the event ran used to park its seq
        in ``_cancelled`` forever -- ``pending_events`` then under-counted
        every later event by one and each pop paid the set probe."""
        kernel = SimKernel()
        ticket = kernel.schedule(1, lambda: None)
        kernel.run()
        kernel.cancel(ticket)
        assert kernel._cancelled == set()
        kernel.schedule(5, lambda: None)
        assert kernel.pending_events == 1
        kernel.run()
        assert kernel.events_executed == 2

    def test_cancel_at_the_events_own_instant(self):
        """At ``time == now`` the event may or may not have run yet; only
        one still queued is cancelled."""
        kernel = SimKernel()
        ran = []
        tickets = {}

        def first():
            ran.append("first")
            kernel.cancel(tickets["first"])  # running right now: a no-op
            kernel.cancel(tickets["second"])  # same instant, still queued

        tickets["first"] = kernel.post(1.0, first)
        tickets["second"] = kernel.post(1.0, ran.append, "second")
        kernel.post(1.0, ran.append, "third")
        assert kernel.pending_events == 3
        kernel.step()
        assert kernel.pending_events == 1
        kernel.run()
        assert ran == ["first", "third"]
        assert kernel.events_executed == 2
        assert kernel._cancelled == set()

    def test_peak_pending_stays_exact_across_late_cancels(self):
        """The ledger's ``simkernel.peak_pending_events`` is the running
        max of ``pending_events``: late cancels must not bend it."""
        kernel = SimKernel()
        peak = 0
        for round_ in range(5):
            tickets = [kernel.schedule(1.0, lambda: None) for _ in range(4)]
            peak = max(peak, kernel.pending_events)
            kernel.run()
            for ticket in tickets:
                kernel.cancel(ticket)  # all late
            assert kernel.pending_events == 0
        assert peak == 4
        assert kernel._cancelled == set()

    def test_a_cancelled_event_counts_no_event(self):
        kernel = SimKernel()
        ran = []
        ticket = kernel.post(1.0, ran.append, "a")
        assert ticket[0] == 1.0  # the time the event is due
        kernel.post(2.0, ran.append, "b")
        kernel.cancel(ticket)
        assert kernel.pending_events == 1
        kernel.run()
        assert ran == ["b"]
        assert kernel.events_executed == 1  # a cancelled event counts none
        assert kernel._cancelled == set()

    def test_cancelled_event_never_runs(self):
        kernel = SimKernel()
        ran = []
        ticket = kernel.schedule(1.0, ran.append, "a")
        kernel.schedule(2.0, ran.append, "b")
        kernel.cancel(ticket)
        kernel.run()
        assert ran == ["b"]

    def test_run_until_stops_on_cancelled_only_queue(self):
        kernel = SimKernel()
        ticket = kernel.schedule(5.0, lambda: None)
        kernel.cancel(ticket)
        kernel.run(until=10.0)
        assert kernel.now == 10.0
        assert kernel.events_executed == 0


class TestCompaction:
    def test_mass_cancellation_compacts_heap(self):
        kernel = SimKernel()
        keep = kernel.schedule(500.0, lambda: None)
        tickets = [kernel.schedule(float(i), lambda: None) for i in range(200)]
        for h in tickets:
            kernel.cancel(h)
        # Past the threshold the bulk of the placeholders is swept out
        # (a sub-threshold tail may linger until the next sweep).
        assert len(kernel._queue) < 100
        assert kernel.pending_events == 1
        kernel.cancel(keep)
        kernel.run()
        assert kernel.events_executed == 0

    def test_compaction_inside_callback_keeps_later_events(self):
        """Regression: compacting used to rebind the queue list, stranding
        the run loop's local alias on a stale copy -- events scheduled
        after the compaction were silently lost (deadlocking E2's
        bootstrap at scale).  Compaction must mutate the heap in place.
        """
        kernel = SimKernel()
        ran = []
        tickets = [kernel.schedule(10.0, lambda: None) for _ in range(200)]

        def cancel_then_schedule():
            for h in tickets:
                kernel.cancel(h)  # triggers _compact mid-run
            kernel.schedule(1.0, ran.append, "after-compact")

        kernel.schedule(0.0, cancel_then_schedule)
        kernel.run()
        assert ran == ["after-compact"]

    def test_compaction_preserves_order(self):
        kernel = SimKernel()
        ran = []
        doomed = [kernel.schedule(50.0, lambda: None) for _ in range(150)]
        for i in range(5):
            kernel.schedule(float(i + 1), ran.append, i)
        for h in doomed:
            kernel.cancel(h)
        kernel.run()
        assert ran == [0, 1, 2, 3, 4]


class TestTrampoline:
    def test_future_resume_counts_as_event(self):
        """Whether a resume trampolines or goes through the heap must not
        change ``events_executed`` (E10 reports this number)."""
        kernel = SimKernel()

        def waiter():
            fut = SimFuture("w")
            kernel.schedule(1.0, fut.set_result, 42)
            value = yield fut
            return value

        fut = kernel.spawn(waiter())
        kernel.run()
        assert fut.result() == 42
        # spawn step + set_result event + trampolined resume = 3.
        assert kernel.events_executed == 3

    def test_resume_order_is_fifo(self):
        kernel = SimKernel()
        order = []
        gate = SimFuture("gate")

        def waiter(tag):
            yield gate
            order.append(tag)

        for tag in ("a", "b", "c"):
            kernel.spawn(waiter(tag))
        kernel.schedule(1.0, gate.set_result, None)
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_resume_defers_to_due_events(self):
        """A resume may not jump ahead of an event due at the same instant."""
        kernel = SimKernel()
        order = []
        gate = SimFuture("gate")

        def waiter():
            yield gate
            order.append("resumed")

        kernel.spawn(waiter())

        def resolve():
            gate.set_result(None)

        kernel.schedule(1.0, resolve)
        kernel.schedule(1.0, order.append, "same-instant")
        kernel.run()
        assert order == ["same-instant", "resumed"]

    def test_trampoline_limit_spills_to_heap(self, monkeypatch):
        monkeypatch.setattr(SimKernel, "TRAMPOLINE_LIMIT", 8)
        kernel = SimKernel()

        def chain(n):
            for _ in range(n):
                yield completed(None)
            return "done"

        fut = kernel.spawn(chain(50))
        kernel.run()
        assert fut.result() == "done"

    def test_spilled_resumes_visible_to_max_events(self, monkeypatch):
        monkeypatch.setattr(SimKernel, "TRAMPOLINE_LIMIT", 2)
        kernel = SimKernel()

        def forever():
            while True:
                yield completed(None)

        kernel.spawn(forever())
        with pytest.raises(SimulationError, match="max_events"):
            kernel.run(max_events=100)

    def test_trampoline_and_heap_paths_agree_on_sim_time(self):
        """Same workload, resumed via trampoline, must land on the same
        simulated clock as pure-timeout scheduling."""
        kernel = SimKernel()

        def worker():
            for _ in range(10):
                fut = SimFuture()
                kernel.schedule(1.0, fut.set_result, None)
                yield fut
                yield Timeout(0.5)
            return kernel.now

        fut = kernel.spawn(worker())
        kernel.run()
        assert fut.result() == pytest.approx(15.0)
        assert kernel.now == pytest.approx(15.0)
