"""repro.trace: causal tracing through the simulated message plane.

Layers (bottom up):

* :mod:`repro.trace.context`  -- the TraceContext carried by messages;
* :mod:`repro.trace.recorder` -- Span and SpanRecorder (storage);
* :mod:`repro.trace.ledger`   -- per-component load derived from spans;
* :mod:`repro.trace.export`   -- Chrome ``trace_event`` JSON;
* :mod:`repro.trace.audit`    -- mechanical scalability assertions (E1/E3/E9).

Enable on a built system with ``system.enable_tracing()``; with tracing
off, ``services.tracer`` is ``None`` and the instrumented hot paths pay
one pointer test.
"""

from repro.trace.audit import AuditFinding, TraceAudit, load_slope, load_slope_finding
from repro.trace.context import TraceContext
from repro.trace.export import chrome_trace, write_chrome_trace
from repro.trace.ledger import LoadLedger
from repro.trace.recorder import Span, SpanRecorder

__all__ = [
    "AuditFinding",
    "LoadLedger",
    "Span",
    "SpanRecorder",
    "TraceAudit",
    "TraceContext",
    "chrome_trace",
    "load_slope",
    "load_slope_finding",
    "write_chrome_trace",
]
