"""Fast-path kernel behaviour: cancellation accounting, heap compaction,
the future-resume trampoline, and the one loop behind every ``run*``.

These pin down the invariants the tuple-heap/trampoline redesign must
keep: ``pending_events`` never counts cancelled placeholders, compaction
is invisible to code running inside the event loop, trampolined
resumes preserve event order and the ``events_executed`` count, and
``run()``, ``run(until=)``, ``run(max_events=)`` and
``run_until_complete`` are ``step()`` after ``step()`` and nothing else.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled, SimulationDeadlock, SimulationError
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


# -- the one loop: every way of driving is step() after step() ---------------

DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0, 3.0])  # collisions wanted

ACTIONS = st.recursive(
    st.one_of(
        st.tuples(st.just("sleep"), DELAYS),
        st.tuples(st.just("wait"), DELAYS),  # a future a later event resolves
        st.tuples(st.just("wait_fail"), DELAYS),  # ... or fails
        st.tuples(st.just("floor")),  # yield None
        st.tuples(st.just("spin"), st.integers(0, 12)),  # zero-time loop
        # An event and its cancellation; same instant when the delays are
        # equal, the cancel queued ahead of its target when ``first``.
        st.tuples(st.just("cancel"), DELAYS, DELAYS, st.booleans()),
    ),
    lambda inner: st.tuples(st.just("child"), st.lists(inner, max_size=3)),
    max_leaves=8,
)

#: (start delay, actions, kill delay or None) per top-level process.
PROGRAMS = st.lists(
    st.tuples(DELAYS, st.lists(ACTIONS, max_size=5), st.none() | DELAYS),
    min_size=1,
    max_size=4,
)


class TinyTrampoline(SimKernel):
    TRAMPOLINE_LIMIT = 4  # so a 12-resume spin spills into the heap


class Program:
    """One random program built on a fresh kernel; ``log`` is what ran."""

    def __init__(self, spec):
        self.kernel = kernel = TinyTrampoline()
        self.log = log = []

        def body(tag, actions):
            for n, action in enumerate(actions):
                log.append((tag, n, kernel.now))
                kind = action[0]
                if kind == "sleep":
                    yield Timeout(action[1])
                elif kind in ("wait", "wait_fail"):
                    fut = SimFuture()
                    if kind == "wait":
                        kernel.post(action[1], fut.set_result, n)
                    else:
                        kernel.post(action[1], fut.set_exception, ValueError(tag))
                    try:
                        assert (yield fut) == n
                    except ValueError:
                        log.append((tag, n, "failed"))
                elif kind == "floor":
                    yield None
                elif kind == "spin":
                    for _ in range(action[1]):
                        yield completed(None)
                elif kind == "cancel":
                    _, delay, cancel_delay, first = action
                    holder = []
                    if first:
                        kernel.post(cancel_delay, lambda h=holder: kernel.cancel(h[0]))
                    holder.append(kernel.post(delay, log.append, (tag, n, "ticket")))
                    if not first:
                        kernel.post(cancel_delay, kernel.cancel, holder[0])
                else:
                    yield body(f"{tag}.{n}", action[1])
            log.append((tag, "end", kernel.now))
            return tag

        self.futures = []
        for i, (start, actions, kill) in enumerate(spec):
            proc = kernel.spawn_process(body(f"p{i}", [("sleep", start), *actions]))
            self.futures.append(proc.future)
            if kill is not None:
                kernel.post(kill, proc.kill)

    def state(self):
        kernel = self.kernel
        return (list(self.log), kernel.now, kernel.events_executed, kernel.pending_events)

    # The reference drivers: step() and nothing else.

    def steps(self, n=sys.maxsize):
        """Up to ``n`` steps (by default all of them); True if work remains."""
        for _ in range(n):
            if not self.kernel.step():
                return False
        return self.kernel.pending_events > 0

    def steps_until(self, until):
        kernel = self.kernel
        while True:
            live = [e for e in kernel._queue if e[1] not in kernel._cancelled]
            if not kernel._micro and (not live or min(live)[0] > until):
                break
            kernel.step()
        kernel.now = max(kernel.now, until)

    def steps_until_complete(self, fut):
        while not fut.done():
            if not self.kernel.step():
                return "SimulationDeadlock"
        return outcome(fut.result)


def outcome(thunk):
    try:
        return ("ok", thunk())
    except (ProcessKilled, SimulationDeadlock) as exc:
        return type(exc).__name__


class TestOneLoop:
    @settings(max_examples=150)
    @given(PROGRAMS)
    def test_run_is_step_after_step(self, spec):
        ref, got = Program(spec), Program(spec)
        assert ref.steps() is False
        got.kernel.run()
        assert got.state() == ref.state()
        assert got.kernel.pending_events == 0

    @settings(max_examples=150)
    @given(PROGRAMS, st.lists(st.integers(0, 40).map(lambda n: n / 4), max_size=8))
    def test_run_until_in_slices(self, spec, slices):
        """Any slicing -- a slice in the past included -- stops exactly
        where step() would, the clock on ``until`` and never rewound."""
        ref, got = Program(spec), Program(spec)
        for until in slices:
            before = got.kernel.now
            ref.steps_until(until)
            got.kernel.run(until=until)
            assert got.state() == ref.state()
            assert got.kernel.now == max(before, until)
        ref.steps()
        got.kernel.run()
        assert got.state() == ref.state()

    @settings(max_examples=150)
    @given(PROGRAMS, st.integers(0, 7))
    def test_run_max_events_resumed_after_the_raise(self, spec, chunk):
        """``max_events`` counts step() units, and the raise loses nothing:
        the next run() picks up at the very next unit."""
        ref, got = Program(spec), Program(spec)
        for _ in range(10):
            more = ref.steps(chunk)
            if more:
                with pytest.raises(SimulationError, match="max_events"):
                    got.kernel.run(max_events=chunk)
            else:
                got.kernel.run(max_events=chunk)
            assert got.state() == ref.state()
        ref.steps()
        got.kernel.run()
        assert got.state() == ref.state()

    @settings(max_examples=150)
    @given(PROGRAMS, st.data())
    def test_run_until_complete_stops_with_its_future(self, spec, data):
        ref, got = Program(spec), Program(spec)
        for index in data.draw(st.permutations(range(len(spec)))):
            expected = ref.steps_until_complete(ref.futures[index])
            fut = got.futures[index]
            assert outcome(lambda: got.kernel.run_until_complete(fut)) == expected
            assert got.state() == ref.state()
        ref.steps()
        got.kernel.run()
        assert got.state() == ref.state()

    def test_run_until_the_past_leaves_the_clock_alone(self):
        kernel = SimKernel()
        ran = []
        kernel.post(5.0, ran.append, "a")
        kernel.post(9.0, ran.append, "b")
        kernel.run(until=7.0)
        assert (kernel.now, ran) == (7.0, ["a"])
        kernel.run(until=3.0)
        assert (kernel.now, ran, kernel.pending_events) == (7.0, ["a"], 1)

    def test_run_until_complete_on_a_drained_queue_names_the_future(self):
        kernel = SimKernel()
        kernel.post(1.0, lambda: None)
        with pytest.raises(SimulationDeadlock, match="'never'"):
            kernel.run_until_complete(SimFuture("never"))
        assert kernel.events_executed == 1  # it ran what there was first

    def test_max_events_raises_only_when_another_unit_is_due(self):
        kernel = SimKernel()
        ran = []
        for due in (1.0, 2.0, 9.0):
            kernel.post(due, ran.append, due)
        kernel.cancel(kernel.post(3.0, ran.append, "cancelled"))
        kernel.run(until=5.0, max_events=2)  # budget spent, nothing more due by 5
        assert (ran, kernel.now) == ([1.0, 2.0], 5.0)
        with pytest.raises(SimulationError, match="max_events=0"):
            kernel.run(max_events=0)
        kernel.run(max_events=1)
        assert ran == [1.0, 2.0, 9.0]
        kernel.run(max_events=0)  # nothing pending: nothing to exceed

    def test_max_events_counts_a_standalone_drain_as_one_unit(self):
        """Resumes queued outside an event (test code resolving a future
        between runs) drain as one unit, as one step() would."""
        kernel = SimKernel()
        gate = SimFuture("gate")

        def waiter():
            yield gate
            yield Timeout(1.0)

        kernel.spawn(waiter())
        kernel.run()
        gate.set_result(None)  # no event running: the resume sits on the trampoline
        assert kernel.pending_events == 1
        with pytest.raises(SimulationError, match="max_events"):
            kernel.run(max_events=1)  # the drain was the one unit
        assert kernel.events_executed == 2 and kernel.pending_events == 1
        kernel.run(max_events=1)
        assert kernel.now == 1.0
