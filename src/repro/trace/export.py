"""Trace exporter: Chrome ``trace_event`` JSON.

The JSON format is the ``chrome://tracing`` / Perfetto "JSON Array with
metadata" flavour: a ``traceEvents`` list of complete ("ph": "X") events
plus process-name metadata.  Mapping:

* one *process* (pid) per component, named with its "kind:name" label;
* one *thread* (tid) per trace id, so concurrent logical operations on
  the same component render as parallel rows instead of false nesting;
* timestamps in microseconds of *simulated* time (the simulated clock
  counts milliseconds; ts = ms * 1000).

Exports are a pure function of the span list, so a deterministic trace
yields a byte-identical file -- the property the `--jobs` determinism
check rides on.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.trace.recorder import Span

#: pid 0 is reserved so every real component gets a non-zero pid.
_ANONYMOUS = "(anonymous)"


def chrome_trace(spans: Iterable[Span]) -> dict:
    """The ``trace_event`` document for a span set (as a plain dict)."""
    spans = list(spans)
    pids: Dict[str, int] = {}
    events: List[dict] = []
    for span in spans:
        component = span.component or _ANONYMOUS
        pid = pids.get(component)
        if pid is None:
            pid = pids[component] = len(pids) + 1
        args: Dict[str, object] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "status": span.status,
        }
        if span.link:
            args["link"] = span.link
        if span.annotations:
            args.update(span.annotations)
        end = span.end if span.end is not None else span.start
        events.append(
            {
                "name": span.name,
                "cat": span.kind,
                "ph": "X",
                "ts": round(span.start * 1000.0, 3),
                "dur": round((end - span.start) * 1000.0, 3),
                "pid": pid,
                "tid": span.trace_id,
                "args": args,
            }
        )
    for component, pid in pids.items():
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": component},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Iterable[Span], path: str) -> str:
    """Write the Chrome trace JSON to ``path``; returns the path."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(spans), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path
