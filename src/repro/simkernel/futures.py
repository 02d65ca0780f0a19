"""Single-assignment futures for the simulation kernel.

A :class:`SimFuture` is the unit of synchronisation between simulation
processes.  A process that ``yield``\\ s a future is suspended until the
future is resolved; resolving with an exception re-raises that exception
inside the waiting process.  Futures are deliberately synchronous-callback
based (no threads): resolution runs the registered callbacks immediately,
in registration order, which keeps the simulation deterministic.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional

from repro.errors import FutureError, ProcessKilled, SimulationError

_PENDING = "pending"
_DONE = "done"
_FAILED = "failed"


class SimFuture:
    """A write-once result container.

    Parameters
    ----------
    name:
        Optional label used in ``repr`` and error messages; helps when
        debugging long binding chains.
    """

    __slots__ = ("_state", "_result", "_exception", "_cb", "_callbacks", "name")

    def __init__(self, name: str = "") -> None:
        self._state = _PENDING
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        #: The overwhelmingly common case is exactly one waiter, so the
        #: first callback lives in a plain slot and the overflow list is
        #: only allocated for the second and later ones.
        self._cb: Optional[Callable[["SimFuture"], None]] = None
        self._callbacks: Optional[List[Callable[["SimFuture"], None]]] = None
        self.name = name

    # -- inspection ---------------------------------------------------------

    def done(self) -> bool:
        """True once the future holds a result or an exception."""
        return self._state != _PENDING

    def failed(self) -> bool:
        """True if the future was resolved with an exception."""
        return self._state == _FAILED

    def result(self) -> Any:
        """Return the value, re-raising the stored exception if any.

        Raises :class:`FutureError` if the future is still pending.
        """
        if self._state == _PENDING:
            raise FutureError(f"future {self.name or id(self)} is still pending")
        if self._state == _FAILED:
            assert self._exception is not None
            raise self._exception
        return self._result

    def exception(self) -> Optional[BaseException]:
        """Return the stored exception, or None."""
        return self._exception

    # -- resolution ---------------------------------------------------------

    def set_result(self, value: Any = None) -> None:
        """Resolve the future with ``value`` and run callbacks."""
        if self._state != _PENDING:
            raise FutureError(f"future {self.name or id(self)} already resolved")
        self._state = _DONE
        self._result = value
        # Inlined single-callback fast path (the warm invoke hot loop).
        cb = self._cb
        if cb is not None:
            self._cb = None
            cb(self)
        if self._callbacks:
            self._run_callbacks()

    def set_exception(self, exc: BaseException) -> None:
        """Resolve the future with an exception and run callbacks."""
        if self._state != _PENDING:
            raise FutureError(f"future {self.name or id(self)} already resolved")
        if not isinstance(exc, BaseException):
            raise FutureError(f"set_exception() needs an exception, got {exc!r}")
        self._state = _FAILED
        self._exception = exc
        cb = self._cb
        if cb is not None:
            self._cb = None
            cb(self)
        if self._callbacks:
            self._run_callbacks()

    def _run_callbacks(self) -> None:
        cb = self._cb
        if cb is not None:
            self._cb = None
            cb(self)
        if self._callbacks:
            callbacks, self._callbacks = self._callbacks, None
            for cb in callbacks:
                cb(self)

    # -- chaining -----------------------------------------------------------

    def add_done_callback(self, cb: Callable[["SimFuture"], None]) -> None:
        """Run ``cb(self)`` when resolved (immediately if already done)."""
        if self._state != _PENDING:
            cb(self)
        elif self._cb is None:
            self._cb = cb
        else:
            if self._callbacks is None:
                self._callbacks = []
            self._callbacks.append(cb)

    def then(self, fn: Callable[[Any], Any], name: str = "") -> "SimFuture":
        """Return a future holding ``fn(result)``; exceptions propagate."""
        out = SimFuture(name or (self.name + ".then"))

        def _cb(fut: "SimFuture") -> None:
            if fut.failed():
                out.set_exception(fut.exception())  # type: ignore[arg-type]
                return
            try:
                out.set_result(fn(fut._result))
            except BaseException as exc:  # noqa: BLE001 - mirrored to future
                out.set_exception(exc)

        self.add_done_callback(_cb)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = f" {self.name!r}" if self.name else ""
        return f"<SimFuture{label} {self._state}>"


def gather(futures: Iterable[SimFuture], name: str = "gather") -> SimFuture:
    """Combine futures into one resolving with the list of all results.

    Resolution order is irrelevant; results are returned in input order.
    The first failure fails the gather (remaining results are discarded,
    matching the semantics callers of multi-replica sends expect).
    """
    futs = list(futures)
    out = SimFuture(name)
    if not futs:
        out.set_result([])
        return out
    remaining = len(futs)
    results: List[Any] = [None] * remaining

    def make_cb(i: int) -> Callable[[SimFuture], None]:
        def _cb(fut: SimFuture) -> None:
            nonlocal remaining
            if out.done():
                return
            if fut.failed():
                out.set_exception(fut.exception())  # type: ignore[arg-type]
                return
            results[i] = fut._result
            remaining -= 1
            if remaining == 0:
                out.set_result(results)

        return _cb

    for i, fut in enumerate(futs):
        fut.add_done_callback(make_cb(i))
    return out


def k_of(futures: Iterable[SimFuture], k: int, name: str = "k_of") -> SimFuture:
    """Resolve with the first ``k`` successful results (index, value pairs).

    Fails when fewer than ``k`` inputs can still succeed.  This implements
    the "k of the N addresses" multicast semantic of paper section 3.4.
    """
    futs = list(futures)
    out = SimFuture(name)
    if k <= 0:
        out.set_result([])
        return out
    if len(futs) < k:
        out.set_exception(FutureError(f"k_of: need {k} results, only {len(futs)} futures"))
        return out
    successes: List[Any] = []
    failures = 0

    def make_cb(i: int) -> Callable[[SimFuture], None]:
        def _cb(fut: SimFuture) -> None:
            nonlocal failures
            if out.done():
                return
            if fut.failed():
                failures += 1
                if len(futs) - failures < k:
                    out.set_exception(fut.exception())  # type: ignore[arg-type]
                return
            successes.append((i, fut._result))
            if len(successes) == k:
                out.set_result(list(successes))

        return _cb

    for i, fut in enumerate(futs):
        fut.add_done_callback(make_cb(i))
    return out


def shared_failure(exc: BaseException) -> BaseException:
    """``exc`` as the riders of a failed leader's future see it: a kill
    stays with the process it was aimed at, and they get an error they
    can catch."""
    if isinstance(exc, ProcessKilled):
        return SimulationError(f"abandoned: its leader was killed ({exc})")
    return exc


def single_flight(table: dict, key: Any, name: str, body):
    """Run ``body`` once per ``key``, however many callers arrive meanwhile.

    A generator for ``yield from``.  The first caller runs the ``body``
    generator with a future (labelled ``name``) parked under
    ``table[key]``; later callers yield that future -- their ``body`` is
    never started -- and get the first one's value or exception (a kill
    as :func:`shared_failure` passes it on).  The
    key is cleared before the future resolves, so the next caller after
    either outcome runs its body again.
    """
    inflight = table.get(key)
    if inflight is not None:
        value = yield inflight
        return value
    fut = table[key] = SimFuture(name)
    try:
        value = yield from body
    except BaseException as exc:
        del table[key]
        fut.set_exception(shared_failure(exc))
        raise
    del table[key]
    fut.set_result(value)
    return value
