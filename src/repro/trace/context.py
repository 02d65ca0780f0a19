"""TraceContext: the causal coordinates a message carries.

A trace context is the (trace id, span id, parent span id) triple that
rides inside :class:`~repro.net.message.Message` envelopes and
:class:`~repro.security.environment.CallEnvironment` values.  It is the
only piece of tracing state that crosses object boundaries; everything
else (the spans themselves) stays in the local
:class:`~repro.trace.recorder.SpanRecorder`.

Determinism contract: ids are small integers allocated by the recorder in
execution order.  Because the simulation kernel is strictly deterministic
(events at equal times run in schedule order), the allocation order -- and
therefore every id -- is a pure function of (experiment, quick, seed).
Traced runs are bit-identical across ``--jobs N``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class TraceContext:
    """Immutable causal coordinates of one span, as seen on the wire."""

    trace_id: int
    span_id: int
    parent_id: int = 0

    def __str__(self) -> str:
        return f"trace={self.trace_id} span={self.span_id} parent={self.parent_id}"
