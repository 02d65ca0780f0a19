"""The discrete-event loop: simulated clock, events, generator processes.

Processes are plain Python generators.  A process may ``yield``:

* a :class:`~repro.simkernel.futures.SimFuture` -- suspend until resolved;
  the ``yield`` expression evaluates to the future's result, and a failed
  future re-raises its exception *inside* the process (so processes use
  ordinary ``try/except``);
* a :class:`Timeout` -- suspend for simulated time;
* another generator -- spawned as a child process and awaited;
* ``None`` -- yield the floor: resume after all currently-due events.

A process's ``return`` value becomes the result of the :class:`SimFuture`
returned by :meth:`SimKernel.spawn`.

The loop is strictly deterministic: events at equal times run in schedule
order (a monotonically increasing sequence number breaks ties).

Hot-path design (the fast path every experiment sweep lives on):

* The heap holds bare tuples ``(time, seq, fn, args)`` -- no per-event
  object allocation, no comparison ever reaches ``fn`` because ``seq`` is
  unique.  Nothing cancels: a :meth:`SimKernel.deadline` runs only if its
  future is still pending; one settled first is dropped from its delay's
  FIFO lane (one heap entry per lane) and counts no event.
* Resuming a process from a resolved future does **not** allocate a fresh
  0-delay event when nothing else is due at the current instant; the
  resume runs on a bounded FIFO *trampoline* drained after the current
  event's callback returns.  Because the trampoline runs exactly where the
  0-delay event would have run (after the current callback, before any
  strictly-later event, in resolution order), the event *order* -- and
  therefore every simulated-time result -- is bit-identical to the naive
  always-schedule kernel.  When another event *is* due at the same instant
  the kernel falls back to a real event, preserving seq-order fairness.
  Trampolined resumes still count in :attr:`SimKernel.events_executed`.
* The trampoline is depth-bounded (:attr:`SimKernel.TRAMPOLINE_LIMIT`):
  a pathological zero-time resolve/resume loop spills back into the heap
  as ordinary events so ``max_events`` guards still engage.
"""

from __future__ import annotations

import heapq
from collections import deque
from types import GeneratorType
from typing import Any, Callable, Deque, Dict, Generator, List, Optional, Tuple

from repro.errors import ProcessKilled, SimulationDeadlock, SimulationError
from repro.simkernel.futures import SimFuture

ProcessGen = Generator[Any, Any, Any]

#: Heap entry: (time, seq, fn, args).  seq is unique, so comparisons never
#: reach fn/args and the tuple order is a strict total order.  A deadline
#: lane's entry is (time, seq, None, lane).
_Entry = Tuple[float, int, Optional[Callable[..., None]], Any]


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
        if delay < 0:
            raise SimulationError(f"negative timeout {delay}")
        self.delay = delay


def _spent(_value: Any) -> None:
    """What a finished :class:`Process` points its two callbacks at.

    They were bound methods of itself -- the only cycle -- so a finished
    process, its generator and its future are freed by refcount when the
    last waiter lets go.  A callable, not ``None``: a resume still on its
    way (killed while parked, the future resolves later) is queued all
    the same and counts its one event -- ``events_executed`` is in digests.
    """


class Process:
    """A running simulation process wrapping a generator.

    Not constructed directly -- use :meth:`SimKernel.spawn`.
    """

    __slots__ = ("kernel", "gen", "future", "name", "_alive", "_step_cb", "_fut_cb")

    def __init__(self, kernel: "SimKernel", gen: ProcessGen, name: str) -> None:
        self.kernel = kernel
        self.gen = gen
        self.future = SimFuture(name or "process")
        self.name = name
        self._alive = True
        # Bound methods are allocated on every attribute access; the two
        # below are passed to the scheduler on every step, so bind once.
        self._step_cb = self._step_send
        self._fut_cb = self._on_future

    @property
    def alive(self) -> bool:
        """True until the generator returns, raises, or is killed."""
        return self._alive

    def kill(self, reason: str = "killed") -> None:
        """Throw :class:`ProcessKilled` into the process at its next step."""
        if not self._alive:
            return
        self.kernel.post(0.0, self._step_throw, ProcessKilled(reason))

    # -- stepping -----------------------------------------------------------

    def _step_send(self, value: Any) -> None:
        if not self._alive:
            return
        try:
            yielded = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - mirrored to future
            self._fail(exc)
            return
        if (
            type(yielded) is SimFuture
            and yielded._cb is None
            and yielded._state == "pending"
        ):
            # The step every remote call parks on: first waiter of a
            # pending future is add_done_callback's slot store, done here.
            yielded._cb = self._fut_cb
        elif type(yielded) is Timeout:
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
        if not self._alive:
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
            child = self.kernel.spawn(yielded, name=self.name + ".child")
            child.add_done_callback(self._fut_cb)
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
        self._alive = False
        self._step_cb = self._fut_cb = _spent
        self.future.set_result(value)

    def _fail(self, exc: BaseException) -> None:
        self._alive = False
        self._step_cb = self._fut_cb = _spent
        self.future.set_exception(exc)


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
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, fn, args))

    #: The same method under its callback-style names.
    schedule = call_later = post

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
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
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

    def spawn(self, gen: ProcessGen, name: str = "") -> SimFuture:
        """Start ``gen`` as a process; returns a future for its return value.

        The first step of the process runs on a fresh event at the current
        time, never synchronously inside ``spawn`` -- so spawn order, not
        call-stack shape, determines execution order.
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
        # post(0.0, proc._step_cb, None), minus the frame: one spawn per call.
        self._seq += 1
        heapq.heappush(self._queue, (self.now, self._seq, proc._step_cb, (None,)))
        return proc.future

    def spawn_process(self, gen: ProcessGen, name: str = "") -> Process:
        """Like :meth:`spawn` but returns the :class:`Process` (killable)."""
        if type(gen) is not GeneratorType and not isinstance(gen, Generator):
            raise SimulationError(
                f"spawn_process() needs a generator, got {type(gen).__name__}"
            )
        self._processes_spawned += 1
        proc = Process(self, gen, name or f"proc-{self._processes_spawned}")
        self.post(0.0, proc._step_cb, None)
        return proc

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

    def _take(self, lane: _Lane) -> Tuple[Callable[..., None], Tuple[Any, ...]]:
        """Pop ``lane``'s live head for running: its ``(fn, args)``."""
        entry = lane.popleft()
        self._rekey(lane)
        return entry[3], entry[4]

    def _rekey(self, lane: _Lane) -> None:
        if lane:
            head = lane[0]
            heapq.heapreplace(self._queue, (head[0], head[1], None, lane))
        else:
            heapq.heappop(self._queue)
            del self._lanes[lane.delay]

    # -- trampoline ---------------------------------------------------------

    def _drain_micro(self) -> None:
        micro = self._micro
        budget = self.TRAMPOLINE_LIMIT
        while micro:
            if budget == 0:
                # Pathological zero-time loop: spill the remainder into the
                # heap (FIFO order is preserved by ascending seqs) so the
                # outer loop's max_events guard can see it.
                while micro:
                    fn, arg = micro.popleft()
                    self.post(0.0, fn, arg)
                return
            fn, arg = micro.popleft()
            budget -= 1
            self._events_executed += 1
            fn(arg)

    # -- running ------------------------------------------------------------

    def step(self) -> bool:
        """Run the single next unit of work.  False if nothing is pending."""
        if self._micro:  # resumes queued outside an event (e.g. test code)
            self._drain_micro()
            return True
        queue = self._queue
        while queue:
            time, seq, fn, args = queue[0]
            if fn is None:  # a deadline lane
                if self._settle(args, seq):
                    continue
                fn, args = self._take(args)
            else:
                heapq.heappop(queue)
            if time < self.now:  # pragma: no cover - defensive
                raise SimulationError("event queue went backwards in time")
            self.now = time
            self._events_executed += 1
            fn(*args)
            if self._micro:
                self._drain_micro()
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Drain the event queue.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this (the clock is
            advanced to ``until``, never moved back; later events remain
            queued).
        max_events:
            Safety valve for runaway simulations: raises once this many
            units of work (see :meth:`_drive`) have run and another is due.
        """
        self._drive(until, max_events, None)
        if until is not None and self.now < until:
            self.now = until

    def run_until_complete(self, fut: SimFuture, max_events: Optional[int] = None) -> Any:
        """Run until ``fut`` resolves; return its result (or raise).

        Raises :class:`SimulationDeadlock` if the queue drains first.
        """
        self._drive(None, max_events, fut)
        if fut._state == "pending":
            raise SimulationDeadlock(
                f"event queue drained before future {fut.name!r} resolved"
            )
        return fut.result()

    def _drive(
        self, until: Optional[float], max_events: Optional[int], fut: Optional[SimFuture]
    ) -> None:
        """The one loop: :meth:`step` after :meth:`step`, minus the frames.

        Stops when nothing is pending, *before* the first live event later
        than ``until``, or once ``fut`` is no longer pending; raises past
        ``max_events`` units of work, a unit being what one ``step()``
        does -- a heap event with the resumes it trampolines, or a
        stand-alone drain of resumes queued outside an event.
        """
        queue = self._queue
        micro = self._micro
        pop = heapq.heappop
        executed = 0
        while fut is None or fut._state == "pending":
            if not micro:  # else: resumes queued outside an event; no pop
                if not queue:
                    return
                time, seq, fn, args = queue[0]
                if fn is None and self._settle(args, seq):
                    continue  # a deadline lane re-keyed or gone: look again
                if until is not None and time > until:
                    return
            if executed == max_events:
                raise SimulationError(f"exceeded max_events={max_events}")
            executed += 1
            if not micro:
                if fn is None:
                    fn, args = self._take(args)
                else:
                    pop(queue)
                self.now = time
                self._events_executed += 1
                fn(*args)
            if micro:
                self._drain_micro()  # leaves micro empty (spills go to queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimKernel t={self.now:.3f} queued={len(self._queue)}>"
