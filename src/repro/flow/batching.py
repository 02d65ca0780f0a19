"""Request batching: coalesce compatible calls into one upstream message.

The paper's combining tree bounds fan-in structurally: each binding-agent
tier absorbs its children's queries.  Batching makes the combining real
on the data plane: when a runtime opts a method in (binding agents for
GetBinding, clone-pool routers for GetClonePool/CloneEpoch -- idempotent
metadata reads), calls issued within one simulated-time window toward
the same (element, target, method) ride a single wire REQUEST whose
reply fans back out to every caller.

A :class:`BatchInvocation` quacks enough like a MethodInvocation
(``method``, ``env``, ``arity``) that the runtime's send path handles it
unchanged; the server unpacks it into per-call dispatches and combines
the per-call MethodResults into one tuple-valued reply.  One wire
message per batch means one requests_sent, one timeout deadline, one
settlement -- a whole-batch delivery failure or shed fails every member
with the same exception, and each member's invoke retries on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.method import MethodInvocation, MethodResult
from repro.naming.loid import LOID
from repro.simkernel.futures import SimFuture


@dataclass(frozen=True, slots=True)
class BatchInvocation:
    """The payload of one coalesced upstream REQUEST."""

    target: LOID
    method: str
    calls: Tuple[MethodInvocation, ...]

    @property
    def env(self):
        """First member's environment (parents the wire request's span)."""
        return self.calls[0].env

    @property
    def arity(self) -> int:
        """Members in the batch (diagnostics; dispatch unpacks per call)."""
        return len(self.calls)

    def __str__(self) -> str:
        return f"{self.target}.{self.method}[x{len(self.calls)}]"


class _OpenBatch:
    """Calls collected for one (element, target identity, method) key."""

    __slots__ = ("element", "target", "timeout", "entries")

    def __init__(self, element, target, timeout) -> None:
        self.element = element
        self.target = target
        self.timeout = timeout
        self.entries: List[Tuple[MethodInvocation, SimFuture]] = []


class RequestBatcher:
    """Per-runtime coalescing of opted-in methods (see module docstring)."""

    __slots__ = ("runtime", "window", "limit", "methods", "_open", "batches_sent", "calls_batched")

    def __init__(self, runtime, window: float, limit: int) -> None:
        self.runtime = runtime
        self.window = window
        self.limit = limit
        #: Methods opted in via ``LegionRuntime.enable_batching``.
        self.methods: set = set()
        self._open: Dict[Tuple, _OpenBatch] = {}
        self.batches_sent = 0
        self.calls_batched = 0

    def submit(
        self, element, invocation: MethodInvocation, timeout: Optional[float]
    ) -> SimFuture:
        """Queue one call; returns a future resolving to its MethodResult."""
        key = (element, invocation.target.identity, invocation.method)
        fut = SimFuture("batched " + invocation.method)
        batch = self._open.get(key)
        if batch is None:
            batch = _OpenBatch(element, invocation.target, timeout)
            self._open[key] = batch
            batch.entries.append((invocation, fut))
            self.runtime.kernel.schedule(self.window, self._flush_key, key)
        else:
            batch.entries.append((invocation, fut))
            if len(batch.entries) >= self.limit:
                del self._open[key]
                self._flush(batch)
        return fut

    def _flush_key(self, key) -> None:
        batch = self._open.pop(key, None)
        if batch is not None:
            self._flush(batch)

    def _flush(self, batch: _OpenBatch) -> None:
        runtime = self.runtime
        entries = batch.entries
        if len(entries) == 1:
            # Nothing coalesced inside the window: degrade to a plain
            # request so single calls cost one message, not a wrapper.
            invocation, fut = entries[0]
            wire = runtime.send_request(batch.element, invocation, batch.timeout)
            wire.add_done_callback(lambda settled: self._settle_one(settled, fut))
            return
        self.batches_sent += 1
        self.calls_batched += len(entries)
        payload = BatchInvocation(
            batch.target, entries[0][0].method, tuple(inv for inv, _f in entries)
        )
        tracer = runtime.services.tracer
        if tracer is not None and tracer.active:
            tracer.instant(
                "batch " + payload.method,
                "batch",
                parent=payload.env.trace,
                component=runtime.component_label,
                n=len(entries),
            )
        wire = runtime.send_request(batch.element, payload, batch.timeout)
        wire.add_done_callback(lambda settled: self._settle(settled, entries))

    @staticmethod
    def _settle_one(wire: SimFuture, fut: SimFuture) -> None:
        if fut.done():
            return
        if wire.failed():
            fut.set_exception(wire.exception())
        else:
            fut.set_result(wire.result())

    @staticmethod
    def _settle(wire: SimFuture, entries) -> None:
        """Fan the combined reply (or the shared failure) back out."""
        if wire.failed():
            exc = wire.exception()
            for _invocation, fut in entries:
                if not fut.done():
                    fut.set_exception(exc)
            return
        combined: MethodResult = wire.result()
        if not combined.ok:
            # The whole batch was refused (e.g. shed Overloaded): every
            # member fails with the reconstructed remote error.
            try:
                combined.unwrap()
            except Exception as exc:  # noqa: BLE001 - re-fanned to members
                for _invocation, fut in entries:
                    if not fut.done():
                        fut.set_exception(exc)
            return
        for (_invocation, fut), result in zip(entries, combined.value, strict=True):
            if not fut.done():
                fut.set_result(result)
