"""The discrete-event loop: simulated clock, events, generator processes.

Processes are plain Python generators.  A process may ``yield``:

* a :class:`~repro.simkernel.futures.SimFuture` -- suspend until resolved;
  the ``yield`` expression evaluates to the future's result, and a failed
  future re-raises its exception *inside* the process (so processes use
  ordinary ``try/except``);
* a :class:`Timeout` -- suspend for simulated time;
* another generator -- spawned as a child process and awaited;
* ``None`` -- yield the floor: resume after all currently-due events.

:meth:`SimKernel.spawn` returns the :class:`Process`, itself the
:class:`SimFuture` of the generator's ``return`` value;
:meth:`SimKernel.every` spawns the one periodic loop background services run.

The loop is strictly deterministic: events at equal times run in schedule
order (a monotonically increasing sequence number breaks ties).

Hot path (DESIGN.md §4b): the heap holds bare ``(time, seq, fn, args)``
tuples, and nothing cancels -- a :meth:`SimKernel.deadline` whose future
settled first counts no event.  A first step or a resume with nothing
else due at this instant rides a bounded FIFO *trampoline* the loop
drains right after the current callback, where the 0-delay event would
have run, so event order, ``now`` and ``events_executed`` are the naive
always-heap kernel's.
"""

from __future__ import annotations

import heapq
from collections import deque
from types import GeneratorType
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.errors import (
    FutureError, InvalidArgument, LegionError, ProcessKilled, SimulationDeadlock, SimulationError,
)
from repro.simkernel.futures import SimFuture

ProcessGen = Generator[Any, Any, Any]

#: Heap entry: (time, seq, fn, args).  seq is unique, so comparisons never
#: reach fn/args and the tuple order is a strict total order.  A deadline
#: lane's entry is (time, seq, None, lane).
_Entry = Tuple[float, int, Optional[Callable[..., None]], Any]

#: A delay is legal iff ``0.0 <= delay < _INF``: comparisons only, so NaN
#: (which compares false both ways) is refused with the negatives.
_INF = float("inf")


class _Lane(deque):
    """The deadlines of one delay, ``(time, seq, fut, fn, args)``: a FIFO
    already in ``(time, seq)`` order, since the delay is fixed and the
    clock only moves forward.  Its heap entry is keyed on its head or on
    a head since dropped (a lower bound either way)."""

    __slots__ = ("delay",)


class Timeout:
    """Yieldable marker: suspend the yielding process for ``delay`` time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"{'negative' if delay < 0 else 'non-finite'} timeout {delay}")
        self.delay = delay


def _spent(_value: Any) -> None:
    """What a finished :class:`Process` points its two callbacks at.

    They were bound methods of itself -- the only cycle -- so a finished
    process is freed by refcount when the last waiter lets go.  A
    callable, not ``None``: a resume still on its way (killed while
    parked, the future resolves later) is queued all the same and counts
    its one event -- ``events_executed`` is in digests.
    """


class Process(SimFuture):
    """A running generator and the future of its return value, one object
    (as an asyncio ``Task`` is a ``Future``).  Not constructed directly --
    use :meth:`SimKernel.spawn`.  Only its own generator settles it:
    ``set_result``/``set_exception`` raise :class:`~repro.errors.FutureError`.
    """

    __slots__ = ("kernel", "gen", "_step_cb", "_fut_cb")

    def __init__(self, kernel: "SimKernel", gen: ProcessGen, name: str) -> None:
        # SimFuture.__init__, minus its frame: one process per spawn.
        self._state = "pending"
        self._result = self._exception = self._cb = self._callbacks = None
        self.name = name
        self.kernel = kernel
        self.gen = gen
        # Bound methods are allocated on every attribute access; the two
        # below are passed to the scheduler on every step, so bind once.
        self._step_cb = self._step_send
        self._fut_cb = self._on_future

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process at its next step."""
        if self.gen is not None:
            self.kernel.post(0.0, self._step_throw, ProcessKilled(reason))

    def set_result(self, *_: Any) -> None:
        """Refused: a process is settled by its own generator only."""
        raise FutureError(f"process {self.name!r} is settled by its generator only")

    set_exception = set_result

    # -- stepping -----------------------------------------------------------

    def _step_send(self, value: Any) -> None:
        gen = self.gen
        if gen is None:
            return
        try:
            yielded = gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - mirrored to future
            self._fail(exc)
            return
        kind = type(yielded)
        if (
            (kind is SimFuture or kind is Process)
            and yielded._cb is None
            and yielded._state == "pending"
        ):
            # The step every remote call parks on: first waiter of a
            # pending future is add_done_callback's slot store, done here.
            yielded._cb = self._fut_cb
        elif kind is Timeout:
            # post(yielded.delay, self._step_cb, None), minus the frame
            # (the delay was checked when the Timeout was built).
            kernel = self.kernel
            kernel._seq += 1
            heapq.heappush(
                kernel._queue,
                (kernel.now + yielded.delay, kernel._seq, self._step_cb, (None,)),
            )
        else:
            self._handle_yield(yielded)

    def _step_throw(self, exc: BaseException) -> None:
        if self.gen is None:
            return
        try:
            yielded = self.gen.throw(exc)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as err:  # noqa: BLE001 - mirrored to future
            self._fail(err)
            return
        self._handle_yield(yielded)

    def _handle_yield(self, yielded: Any) -> None:
        if isinstance(yielded, SimFuture):
            yielded.add_done_callback(self._fut_cb)
        elif isinstance(yielded, Timeout):
            self.kernel.post(yielded.delay, self._step_cb, None)
        elif isinstance(yielded, Generator):
            # A fresh process: its callback slot is free.
            self.kernel.spawn(yielded, name=self.name + ".child")._cb = self._fut_cb
        elif yielded is None:
            self.kernel.post(0.0, self._step_cb, None)
        else:
            self._step_throw(
                SimulationError(
                    f"process {self.name!r} yielded unsupported {type(yielded).__name__}"
                )
            )

    def _on_future(self, fut: SimFuture) -> None:
        # Queue the resume, never re-entrantly: on the trampoline when
        # nothing else is due at this instant, else as a real 0-delay event
        # that keeps its place in seq order (module docstring, "Hot-path").
        if fut._state == "failed":
            fn, arg = self._step_throw, fut._exception
        else:
            fn, arg = self._step_cb, fut._result
        kernel = self.kernel
        queue = kernel._queue
        if queue and queue[0][0] <= kernel.now:
            kernel.post(0.0, fn, arg)
        else:
            kernel._micro.append((fn, arg))

    def _finish(self, value: Any) -> None:
        # SimFuture.set_result's body; the generator and its frame go now,
        # even while a waiter still holds the process.
        self.gen = None
        self._step_cb = self._fut_cb = _spent
        self._state = "done"
        self._result = value
        cb = self._cb
        if cb is not None:
            self._cb = None
            cb(self)
        if self._callbacks:
            self._run_callbacks()

    def _fail(self, exc: BaseException) -> None:
        self.gen = None
        self._step_cb = self._fut_cb = _spent
        self._state = "failed"
        self._exception = exc
        cb = self._cb
        if cb is not None:
            self._cb = None
            cb(self)
        if self._callbacks:
            self._run_callbacks()


class SimKernel:
    """The discrete-event simulation loop.

    Examples
    --------
    >>> k = SimKernel()
    >>> def proc():
    ...     yield Timeout(5.0)
    ...     return k.now
    >>> fut = k.spawn(proc())
    >>> k.run()
    >>> fut.result()
    5.0
    """

    #: Max trampolined resumes drained per event before the remainder is
    #: spilled back into the heap as ordinary 0-delay events (so runaway
    #: zero-time loops stay visible to ``max_events`` guards).
    TRAMPOLINE_LIMIT = 10_000

    def __init__(self) -> None:
        #: Current simulated time.  A plain attribute because every layer
        #: reads it on every message; only the run loops below write it.
        self.now = 0.0
        self._seq = 0
        #: (time, seq, fn, args) heap.  ``Network.send`` pushes its
        #: deliveries here itself, bumping ``_seq`` exactly as ``post``
        #: does, so it depends on this entry layout (and bypasses ``post``).
        self._queue: List[_Entry] = []
        #: delay → its non-empty deadline lane (one heap entry each).
        self._lanes: Dict[float, _Lane] = {}
        #: pending synchronous resumes: (fn, arg) pairs, FIFO.
        self._micro: Deque[Tuple[Callable[[Any], None], Any]] = deque()
        self._processes_spawned = 0
        self._events_executed = 0

    # -- clock & stats ------------------------------------------------------

    @property
    def events_executed(self) -> int:
        """Total events run so far (monotone; useful for budget guards).

        Trampolined resumes count too, so the number is independent of
        whether a resume happened to take the fast path.
        """
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Events still due to run (a deadline only while its future is pending)."""
        lanes = self._lanes
        live = sum(e[2]._state == "pending" for lane in lanes.values() for e in lane)
        return len(self._queue) - len(lanes) + live + len(self._micro)

    # -- scheduling ---------------------------------------------------------

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Run ``fn(*args)`` after ``delay`` simulated time units."""
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"cannot schedule at delay={delay}: the past, NaN or inf")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn, args))

    #: ``benchmarks/ledger/direct.py`` times :meth:`post` under this name.
    schedule = post

    def deadline(
        self, fut: SimFuture, delay: float, fn: Callable[..., None], *args: Any
    ) -> None:
        """Run ``fn(*args)`` at ``now + delay`` unless ``fut`` has settled.

        Nothing cancels a deadline: settling ``fut`` is enough.  It takes
        its seq here, as :meth:`post` does, so event order and tie-breaks
        are a posted event's; a settled one counts no event and never
        moves the clock.  Queuing first drops the lane's settled heads, so
        a busy lane does not keep settled futures alive until it comes due.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(f"cannot schedule at delay={delay}: the past, NaN or inf")
        self._seq += 1
        entry = (self.now + delay, self._seq, fut, fn, args)
        lanes = self._lanes
        if delay in lanes:
            lane = lanes[delay]
            while lane and lane[0][2]._state != "pending":
                lane.popleft()
        else:
            lane = lanes[delay] = _Lane()
            lane.delay = delay
            heapq.heappush(self._queue, (entry[0], entry[1], None, lane))
        lane.append(entry)

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Start ``gen`` as a process and return it: the future of its
        return value, and what :meth:`Process.kill` kills.

        The first step never runs synchronously inside ``spawn`` -- so
        spawn order, not call-stack shape, determines execution order.  It
        is queued as a resume is (module docstring, "Hot-path").
        """
        # type-is first: native generators (every process in practice)
        # skip the typing-ABC __instancecheck__ walk on the spawn path.
        if type(gen) is not GeneratorType and not isinstance(gen, Generator):
            raise SimulationError(
                f"spawn() needs a generator, got {type(gen).__name__}; "
                "did you forget to call the process function?"
            )
        self._processes_spawned += 1
        proc = Process(self, gen, name or f"proc-{self._processes_spawned}")
        queue = self._queue
        if queue and queue[0][0] <= self.now:
            self._seq += 1
            heapq.heappush(queue, (self.now, self._seq, proc._step_cb, (None,)))
        else:
            self._micro.append((proc._step_cb, None))
        return proc

    def every(
        self, name: str, first: float, interval: Callable[[], float], step: Callable[[], Any]
    ) -> Process:
        """Run ``step()`` once a round until killed; return the process
        (what a background service's ``stop()`` kills).

        The first round starts ``first`` ms from now (at once if 0), each
        later one ``interval()`` ms after the last ended -- read per round,
        so a retuned interval takes effect from the next.  A round may be
        a generator, run to its end; a :class:`~repro.errors.LegionError`
        ends it early, and the next round runs on time.
        """

        def rounds() -> ProcessGen:
            if first:
                yield Timeout(first)
            while True:
                try:
                    body = step()
                    if type(body) is GeneratorType:
                        yield from body
                except LegionError:
                    pass  # a round cut short by a fault just runs again next time
                yield Timeout(interval())

        return self.spawn(rounds(), name)

    def clear(self) -> None:
        """Drop every scheduled event, deadline and queued resume.

        What the kernel is left holding when its system is dropped: the
        entries' callbacks are the last links of cycles through the
        processes and servers they would resume.
        """
        self._queue.clear()
        self._lanes.clear()
        self._micro.clear()

    # -- deadline lanes (the lane's entry is on top of the heap) -------------

    def _settle(self, lane: _Lane, seq: int) -> bool:
        """Drop ``lane``'s settled heads; False if the entry is keyed on
        a live head, which is then the next event.  Else re-key the entry
        on the first live head (or remove it) and return True: look again."""
        while lane and lane[0][2]._state != "pending":
            lane.popleft()
        if lane and lane[0][1] == seq:
            return False
        self._rekey(lane)
        return True

    def _rekey(self, lane: _Lane) -> None:
        if lane:
            head = lane[0]
            heapq.heapreplace(self._queue, (head[0], head[1], None, lane))
        else:
            heapq.heappop(self._queue)
            del self._lanes[lane.delay]

    # -- running ------------------------------------------------------------

    def step(self) -> bool:
        """Run the single next unit of work (see :meth:`_drive`).  False if
        none was due."""
        executed = self._events_executed
        self._drive(None, 1, None)
        return self._events_executed != executed

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this finite time (the
            clock is advanced to ``until``, never moved back; later events
            remain queued).
        max_events:
            Safety valve for runaway simulations, a non-negative ``int``:
            raises once this many units of work (see :meth:`_drive`) have
            run and another is due.
        """
        if self._drive(until, max_events, None):
            raise SimulationError(f"exceeded max_events={max_events}")
        if until is not None and self.now < until:
            self.now = until

    def run_until_complete(self, fut: SimFuture, max_events: Optional[int] = None) -> Any:
        """Run until ``fut`` resolves; return its result (or raise).

        ``max_events`` is :meth:`run`'s.  Raises :class:`SimulationDeadlock`
        if the queue drains first.
        """
        if self._drive(None, max_events, fut):
            raise SimulationError(f"exceeded max_events={max_events}")
        state = fut._state
        if state == "done":
            return fut._result
        if state == "failed":
            raise fut._exception
        raise SimulationDeadlock(
            f"event queue drained before future {fut.name!r} resolved"
        )

    def _drive(
        self, until: Optional[float], max_events: Optional[int], fut: Optional[SimFuture]
    ) -> bool:
        """The one loop behind :meth:`step`, :meth:`run` and
        :meth:`run_until_complete`.

        Runs units of work -- a heap event with the steps it trampolines,
        or a drain of steps queued outside an event (due ``now``) -- and
        returns False when nothing is pending, *before* the first live
        event later than ``until``, or once ``fut`` is no longer pending;
        True once ``max_events`` units have run and another is due.  Past
        ``TRAMPOLINE_LIMIT`` steps a zero-time loop spills into the heap
        (FIFO order kept by ascending seqs), so ``max_events`` sees it.
        """
        # Comparisons and an identity test only: every system.call ends here.
        if until is not None and not until < _INF:
            raise InvalidArgument(f"until={until!r}: must be a finite time (a past one is legal)")
        if max_events is not None and (type(max_events) is not int or max_events < 0):
            raise InvalidArgument(f"max_events={max_events!r}: must be None or an int >= 0")
        queue = self._queue
        micro = self._micro
        popleft = micro.popleft
        pop = heapq.heappop
        executed = 0
        while fut is None or fut._state == "pending":
            if not micro:  # else: steps queued outside an event; no pop
                if not queue:
                    return False
                time, seq, fn, args = queue[0]
                if fn is None and self._settle(args, seq):
                    continue  # a deadline lane re-keyed or gone: look again
                if until is not None and time > until:
                    return False
            elif until is not None and self.now > until:
                return False
            if executed == max_events:
                return True
            executed += 1
            if not micro:
                if fn is None:  # the lane's live head
                    lane = args
                    _, _, _, fn, args = lane.popleft()
                    self._rekey(lane)
                else:
                    pop(queue)
                self.now = time
                self._events_executed += 1
                fn(*args)
            if micro:  # the trampoline
                budget = self.TRAMPOLINE_LIMIT
                while micro and budget:
                    fn, arg = popleft()
                    budget -= 1
                    self._events_executed += 1
                    fn(arg)
                while micro:  # the spill
                    self.post(0.0, *popleft())
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimKernel t={self.now:.3f} queued={len(self._queue)}>"


class Periodic:
    """A background service: :meth:`start` runs each loop :meth:`_loops`
    lists -- ``(name, first, interval, step)``, as :meth:`SimKernel.every`
    takes them -- on ``self.kernel``, and :meth:`stop` kills them, even
    mid-call."""

    #: Start offset (simulated ms) of each sibling loop after the first
    #: (one per site), so they do not run in lockstep.
    STAGGER = 7.0

    kernel: SimKernel
    _procs: Tuple[Process, ...] = ()

    def start(self) -> None:
        """Spawn the loops (idempotent), the i-th ``i * STAGGER`` ms late."""
        if not self._procs:
            self._procs = tuple(
                self.kernel.every(name, first + i * self.STAGGER, interval, step)
                for i, (name, first, interval, step) in enumerate(self._loops())
            )

    def stop(self) -> None:
        """Kill the loops."""
        for proc in self._procs:
            proc.kill()
        self._procs = ()
