"""Fast-path kernel behaviour: deadline accounting, deadline lanes, the
future-resume trampoline, and the one loop behind every ``run*``.

These pin down the invariants the tuple-heap/trampoline design must
keep: a deadline whose future has settled -- the only way one is
cancelled -- never runs, counts no event, never moves the clock and is
not in ``pending_events``; settled deadlines never pile up in the heap;
trampolined first steps and resumes preserve event order and the
``events_executed`` count, against a kernel that puts every step on the
heap; and ``step()``, ``run()``, ``run(until=)``, ``run(max_events=)``
and ``run_until_complete`` drive one loop, ``step()`` one unit of it at
a time, stepped or run alike against the naive kernel.
"""

import sys
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProcessKilled, SimulationDeadlock, SimulationError
from repro.simkernel.futures import SimFuture
from repro.simkernel.kernel import SimKernel, Timeout


def settled():
    """An already-resolved future: yielding it resumes at once."""
    fut = SimFuture()
    fut.set_result(None)
    return fut


def deadlines(kernel, n, delay, fn=lambda: None, *args):
    """``n`` deadlines of one ``delay``; returns their (pending) futures."""
    futs = [SimFuture() for _ in range(n)]
    for fut in futs:
        kernel.deadline(fut, delay, fn, *args)
    return futs


class TestCancellationAccounting:
    """Nothing cancels: settling a deadline's future is its cancellation."""

    def test_pending_events_excludes_cancelled(self):
        kernel = SimKernel()
        futs = deadlines(kernel, 3, 1.0)
        assert kernel.pending_events == 3
        futs[0].set_result(None)
        assert kernel.pending_events == 2
        kernel.post(1.0, lambda: None)
        assert kernel.pending_events == 3

    def test_cancel_after_run_does_not_go_negative(self):
        kernel = SimKernel()
        (fut,) = deadlines(kernel, 1, 1.0)
        kernel.run()
        fut.set_result(None)  # settles after its deadline ran
        assert kernel.pending_events == 0

    def test_late_cancel_leaves_the_books_alone(self):
        """Settling a future after its deadline ran touches no kernel
        state: no lane and no heap entry is left behind to under-count
        later events."""
        kernel = SimKernel()
        (fut,) = deadlines(kernel, 1, 1.0)
        kernel.run()
        fut.set_result(None)
        assert kernel._lanes == {} and kernel._queue == []
        kernel.post(5, lambda: None)
        assert kernel.pending_events == 1
        kernel.run()
        assert kernel.events_executed == 2

    def test_cancel_at_the_events_own_instant(self):
        """At ``time == now`` a deadline may or may not have run yet;
        settling retires only one still queued."""
        kernel = SimKernel()
        ran = []
        futs = {"first": SimFuture(), "second": SimFuture()}

        def first():
            ran.append("first")
            futs["first"].set_result(None)  # running right now: nothing to retire
            futs["second"].set_result(None)  # same instant, still queued

        kernel.deadline(futs["first"], 1.0, first)
        kernel.deadline(futs["second"], 1.0, ran.append, "second")
        kernel.post(1.0, ran.append, "third")
        assert kernel.pending_events == 3
        kernel.step()
        assert kernel.pending_events == 1
        kernel.run()
        assert ran == ["first", "third"]
        assert kernel.events_executed == 2
        assert kernel._lanes == {}

    def test_peak_pending_stays_exact_across_late_cancels(self):
        """The ledger's ``simkernel.peak_pending_events`` is the running
        max of ``pending_events``: late settles must not bend it."""
        kernel = SimKernel()
        peak = 0
        for round_ in range(5):
            futs = deadlines(kernel, 4, 1.0)
            peak = max(peak, kernel.pending_events)
            kernel.run()
            for fut in futs:
                fut.set_result(None)  # all late
            assert kernel.pending_events == 0
        assert peak == 4
        assert kernel._lanes == {}

    def test_a_cancelled_event_counts_no_event(self):
        kernel = SimKernel()
        ran = []
        (fut,) = deadlines(kernel, 1, 1.0, ran.append, "a")
        kernel.post(2.0, ran.append, "b")
        fut.set_result(None)
        assert kernel.pending_events == 1
        kernel.run()
        assert ran == ["b"]
        assert kernel.events_executed == 1  # a settled deadline counts none
        assert kernel._lanes == {}

    def test_cancelled_event_never_runs(self):
        kernel = SimKernel()
        ran = []
        (fut,) = deadlines(kernel, 1, 1.0, ran.append, "a")
        kernel.post(0.5, fut.set_result, None)
        kernel.post(2.0, ran.append, "b")
        kernel.run()
        assert ran == ["b"]

    def test_run_until_stops_on_cancelled_only_queue(self):
        kernel = SimKernel()
        (fut,) = deadlines(kernel, 1, 5.0)
        fut.set_result(None)
        kernel.run(until=10.0)
        assert kernel.now == 10.0
        assert kernel.events_executed == 0


class TestCompaction:
    """Settled deadlines never pile up in the heap: a lane is one entry."""

    def test_mass_cancellation_compacts_heap(self):
        kernel = SimKernel()
        kernel.post(500.0, lambda: None)
        futs = deadlines(kernel, 200, 10.0)
        assert len(kernel._queue) == 2  # the event and one lane
        for fut in futs:
            fut.set_result(None)
        assert kernel.pending_events == 1
        deadlines(kernel, 1, 10.0)  # queuing drops the settled heads first
        assert len(kernel._lanes[10.0]) == 1
        kernel.run()
        assert kernel.events_executed == 2

    def test_compaction_inside_callback_keeps_later_events(self):
        """Settling deadlines and queuing more work inside a callback
        loses nothing: the run loop's heap alias stays the one heap."""
        kernel = SimKernel()
        ran = []
        futs = deadlines(kernel, 200, 10.0, ran.append, "expired")

        def settle_then_schedule():
            for fut in futs:
                fut.set_result(None)
            kernel.post(1.0, ran.append, "after-settle")
            deadlines(kernel, 1, 0.5, ran.append, "deadline")

        kernel.post(0.0, settle_then_schedule)
        kernel.run()
        assert ran == ["deadline", "after-settle"]

    def test_compaction_preserves_order(self):
        """A live deadline behind settled ones in its lane runs in order."""
        kernel = SimKernel()
        ran = []
        doomed = [SimFuture() for _ in range(150)]
        for n, fut in enumerate(doomed):
            kernel.deadline(fut, 2.5, ran.append, n)
        for i in range(5):
            kernel.post(float(i + 1), ran.append, i)
        for n, fut in enumerate(doomed):
            if n != 75:
                fut.set_result(None)
        kernel.run()
        assert ran == [0, 1, 75, 2, 3, 4]
        assert kernel._lanes == {} and kernel._queue == []


class TestDeadlineLanes:
    def test_a_lane_that_empties_is_reused(self):
        kernel = SimKernel()
        ran = []
        deadlines(kernel, 1, 2.0, ran.append, "a")
        kernel.run()
        assert (ran, kernel._lanes) == (["a"], {})
        deadlines(kernel, 1, 2.0, ran.append, "b")
        assert list(kernel._lanes) == [2.0]
        kernel.run()
        assert (ran, kernel.now) == (["a", "b"], 4.0)
        # Queuing onto a lane whose settled heads it drops leaves the
        # lane's heap entry keyed on a dropped head: it re-keys on top.
        (dead,) = deadlines(kernel, 1, 2.0, ran.append, "dead")
        dead.set_result(None)
        kernel.post(1.0, kernel.deadline, SimFuture(), 2.0, ran.append, "c")
        kernel.run()
        assert (ran, kernel.now) == (["a", "b", "c"], 7.0)
        assert kernel.events_executed == 4
        assert kernel._lanes == {} and kernel._queue == []

    def test_many_distinct_delays_leave_no_lane_behind(self):
        kernel = SimKernel()
        futs = [deadlines(kernel, 1, 1.0 + i / 8)[0] for i in range(100)]
        assert len(kernel._lanes) == 100
        for fut in futs[::2]:
            fut.set_result(None)
        kernel.run()
        assert kernel.events_executed == 50
        assert kernel._lanes == {} and kernel._queue == []

    def test_a_settled_deadline_leaves_now_on_the_last_live_event(self):
        for drive in ("run", "step"):
            kernel = SimKernel()
            (fut,) = deadlines(kernel, 1, 9.0)
            kernel.post(3.0, fut.set_result, None)
            if drive == "run":
                kernel.run()
            else:
                assert kernel.step() is True
                assert kernel.step() is False
            assert (kernel.now, kernel.events_executed) == (3.0, 1)
            assert kernel._queue == []

    def test_a_deadline_and_a_post_due_together_run_in_seq_order(self):
        kernel = SimKernel()
        ran = []
        kernel.post(2.0, ran.append, "post-1")
        deadlines(kernel, 1, 2.0, ran.append, "deadline")
        kernel.post(2.0, ran.append, "post-2")
        # Queued at 1.0 on another lane, due at 2.0 too: last in seq.
        kernel.post(1.0, kernel.deadline, SimFuture(), 1.0, ran.append, "late")
        kernel.run()
        assert ran == ["post-1", "deadline", "post-2", "late"]

    def test_a_negative_delay_is_rejected(self):
        with pytest.raises(SimulationError, match="past"):
            SimKernel().deadline(SimFuture(), -1.0, lambda: None)


class TestTrampoline:
    def test_future_resume_counts_as_event(self):
        """Whether a resume trampolines or goes through the heap must not
        change ``events_executed`` (E10 reports this number)."""
        kernel = SimKernel()

        def waiter():
            fut = SimFuture("w")
            kernel.post(1.0, fut.set_result, 42)
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
        kernel.post(1.0, gate.set_result, None)
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

        kernel.post(1.0, resolve)
        kernel.post(1.0, order.append, "same-instant")
        kernel.run()
        assert order == ["same-instant", "resumed"]

    def test_trampoline_limit_spills_to_heap(self, monkeypatch):
        monkeypatch.setattr(SimKernel, "TRAMPOLINE_LIMIT", 8)
        kernel = SimKernel()

        def chain(n):
            for _ in range(n):
                yield settled()
            return "done"

        fut = kernel.spawn(chain(50))
        kernel.run()
        assert fut.result() == "done"

    def test_spilled_resumes_visible_to_max_events(self, monkeypatch):
        monkeypatch.setattr(SimKernel, "TRAMPOLINE_LIMIT", 2)
        kernel = SimKernel()

        def forever():
            while True:
                yield settled()

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
                kernel.post(1.0, fut.set_result, None)
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
        # A deadline and the settling of its future, before, at or after
        # it is due; at the same instant the settle is queued ahead of the
        # deadline when ``first``.
        st.tuples(st.just("deadline"), DELAYS, DELAYS, st.booleans()),
    ),
    lambda inner: st.one_of(
        st.tuples(st.just("child"), st.lists(inner, max_size=3)),  # yield a generator
        # kernel.spawn, after a post due at the same instant when ``post``;
        # the process is yielded (joined) when ``join``.
        st.tuples(
            st.just("spawn"), st.lists(inner, max_size=3), st.booleans(), st.booleans()
        ),
    ),
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


class _Posted(deque):
    """A trampoline that posts each step as a 0-delay heap event instead."""

    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel

    def append(self, step):
        self.kernel.post(0.0, *step)


class HeapKernel(SimKernel):
    """The naive kernel the trampoline is held to: every first step and
    every resume is a heap event of its own."""

    def __init__(self):
        super().__init__()
        self._micro = _Posted(self)


class Program:
    """One random program built on a fresh kernel; ``log`` is what ran."""

    def __init__(self, spec, kernel_type=TinyTrampoline):
        self.kernel = kernel = kernel_type()
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
                        yield settled()
                elif kind == "deadline":
                    _, delay, settle_delay, first = action
                    fut = SimFuture()
                    if first:
                        kernel.post(settle_delay, fut.set_result, None)
                    kernel.deadline(fut, delay, log.append, (tag, n, "deadline"))
                    if not first:
                        kernel.post(settle_delay, fut.set_result, None)
                elif kind == "spawn":
                    _, actions, post, join = action
                    if post:
                        kernel.post(0.0, log.append, (tag, n, "post"))
                    proc = kernel.spawn(body(f"{tag}.{n}", actions))
                    if join:
                        assert (yield proc) == f"{tag}.{n}"
                else:
                    yield body(f"{tag}.{n}", action[1])
            log.append((tag, "end", kernel.now))
            return tag

        self.futures = []
        for i, (start, actions, kill) in enumerate(spec):
            proc = kernel.spawn(body(f"p{i}", [("sleep", start), *actions]))
            self.futures.append(proc)
            if kill is not None:
                kernel.post(kill, proc.kill)

    def state(self):
        kernel = self.kernel
        return (list(self.log), kernel.now, kernel.events_executed, kernel.pending_events)

    def outcomes(self):
        return [outcome(fut.result) for fut in self.futures]

    # The reference drivers: step() and nothing else.

    def steps(self, n=sys.maxsize):
        """Up to ``n`` steps (by default all of them); True if work remains."""
        for _ in range(n):
            if not self.kernel.step():
                return False
        return self.kernel.pending_events > 0

    def next_due(self):
        """When the next live heap event or pending deadline is due."""
        kernel = self.kernel
        due = [e[0] for e in kernel._queue if e[2] is not None]
        due += [d[0] for lane in kernel._lanes.values() for d in lane if not d[2].done()]
        return min(due, default=None)

    def steps_until(self, until):
        kernel = self.kernel
        while True:
            # Steps queued outside an event are due now.
            due = kernel.now if kernel._micro else self.next_due()
            if due is None or due > until:
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
        """``max_events`` counts step() units: ``run(max_events=n)`` raises
        iff unit n+1 is due (``pending_events``, read off the queues), and
        the raise loses nothing: the next run() picks up at the very next
        unit."""
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

    def test_steps_queued_outside_an_event_wait_for_an_until_that_reaches_now(self):
        kernel = SimKernel()
        kernel.post(5.0, lambda: None)
        kernel.run()
        ran = []

        def proc():
            ran.append(kernel.now)
            yield Timeout(1.0)

        kernel.spawn(proc())  # outside any event: on the trampoline, due at 5.0
        kernel.run(until=3.0)
        assert (ran, kernel.now, kernel.pending_events) == ([], 5.0, 1)
        kernel.run(until=5.0)
        assert (ran, kernel.pending_events) == ([5.0], 1)

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
        kernel.deadline(settled(), 3.0, ran.append, "settled")
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


class TestAgainstTheHeapKernel:
    """The trampoline changes no order: the real kernel (at its real
    ``TRAMPOLINE_LIMIT``, which these programs never reach -- a spill
    re-posts with fresh seqs) against :class:`HeapKernel`, on the same
    programs, spawns from trampolined resumes and beside same-instant
    posts included."""

    @settings(max_examples=150)
    @given(PROGRAMS, st.lists(st.integers(0, 40).map(lambda n: n / 4), max_size=8))
    def test_every_run_until_stop_matches(self, spec, slices):
        ref, got = Program(spec, HeapKernel), Program(spec, SimKernel)
        assert got.state() == ref.state()
        for until in slices:
            ref.kernel.run(until=until)
            got.kernel.run(until=until)
            assert got.state() == ref.state()
        ref.kernel.run()
        got.kernel.run()
        assert got.state() == ref.state()
        assert got.kernel.pending_events == 0
        assert got.outcomes() == ref.outcomes()

    @settings(max_examples=150)
    @given(PROGRAMS, st.data())
    def test_run_until_complete_gives_the_same_outcomes(self, spec, data):
        """A future may settle mid-instant, where the real kernel's drain
        has run steps the heap kernel still holds, so these stops compare
        outcomes; everything is compared once both have drained."""
        ref, got = Program(spec, HeapKernel), Program(spec, SimKernel)
        for index in data.draw(st.permutations(range(len(spec)))):
            expected = outcome(lambda: ref.kernel.run_until_complete(ref.futures[index]))
            fut = got.futures[index]
            assert outcome(lambda: got.kernel.run_until_complete(fut)) == expected
        ref.kernel.run()
        got.kernel.run()
        assert got.state() == ref.state()
        assert got.outcomes() == ref.outcomes()

    @settings(max_examples=150)
    @given(PROGRAMS)
    def test_stepping_and_running_agree_with_the_heap_kernel(self, spec):
        """``while k.step()`` and ``k.run()`` are the same loop: the same
        trace, clock and ``events_executed`` as the naive kernel's run."""
        ref = Program(spec, HeapKernel)
        stepped, ran = Program(spec, SimKernel), Program(spec, SimKernel)
        ref.kernel.run()
        while stepped.kernel.step():
            pass
        ran.kernel.run()
        assert stepped.state() == ran.state() == ref.state()
        assert stepped.outcomes() == ran.outcomes() == ref.outcomes()
