"""The ledger's own layer tracer: a ``sys.setprofile`` hook, outside ``src/``.

The program is not instrumented.  The hook classifies every Python code
object by the file it came from into one *layer* (the ``src/repro``
packages, ``core`` split by module; see :data:`LAYERS`) and keeps, per
layer:

* ``calls``   -- Python ``call`` events (function calls and generator
  resumes, the same thing cProfile's ``ncalls`` counts).  Exact for a seed.
* ``self_ns`` -- host time while that layer's code was the innermost
  ``repro`` (or harness) frame.  Builtins, the stdlib and numpy never become
  the current layer, so their time is charged to the layer that called
  them and the self times sum to the traced wall.

A *span* opens when control crosses from one layer into another and closes
on return; it carries name, start, end, parent and the phase/batch id that
was current.  Spans stay in memory; the first :data:`SPAN_CAP` are kept
raw for ``trace.json``, all of them feed the per-layer aggregates.

The hook's own cost lands between two clock reads and is therefore charged
to whichever layer was current: layers made of many tiny calls are
over-weighted.  ``harness.trace_overhead_x`` says by how much the traced
run is slower in total; counts are unaffected.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Dict, List, Tuple

#: Attribution layers, in report order (ISSUE 11 (a)).
LAYERS: Tuple[str, ...] = (
    "simkernel", "net", "naming", "binding",
    "core.runtime", "core.server", "core.legion_class", "core.other",
    "jurisdiction", "hosts", "persistence", "security", "metrics",
    "flow", "health", "faults", "autoscale", "replication",
    "scenarios", "workloads", "megascale", "experiments", "system", "trace",
)
#: Pseudo-layers: counted, never "current" (except the harness itself).
HARNESS, STDLIB, BUILTINS = "harness", "py_stdlib", "py_builtins"

_CORE_SPLIT = {"runtime.py": "core.runtime", "server.py": "core.server",
               "legion_class.py": "core.legion_class"}
#: Packages without a line of their own fold into ``core.other``:
#: ``idl`` and ``scheduling`` serve the core object model, ``errors.py``
#: is its exception hierarchy.
_FOLDED = "core.other"

SPAN_CAP = 4000

_HARNESS_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_REPRO_MARK = os.sep + "repro" + os.sep


def layer_of_file(filename: str) -> str:
    """The layer a source file belongs to."""
    if filename.startswith(_HARNESS_DIR):
        return HARNESS
    at = filename.rfind(_REPRO_MARK)
    if at < 0:
        return ""  # not ours: stdlib, numpy, site-packages
    parts = filename[at + len(_REPRO_MARK):].split(os.sep)
    if parts[0] == "core":
        return _CORE_SPLIT.get(parts[-1], "core.other")
    return parts[0] if parts[0] in LAYERS else _FOLDED


class LayerTracer:
    """Counts calls and self time per layer; see the module docstring."""

    def __init__(self, watch: Tuple[str, ...] = ()) -> None:
        names = LAYERS + (HARNESS, STDLIB, BUILTINS)
        self.calls: Dict[str, int] = {name: 0 for name in names}
        self.self_ns: Dict[str, int] = {name: 0 for name in LAYERS + (HARNESS,)}
        #: Calls of individually watched functions, by ``co_qualname``
        #: (used for counts the program keeps no counter for).
        self.watched: Dict[str, int] = {name: 0 for name in watch}
        #: Raw spans: (name, layer, start_ns, end_ns, parent_index, tag).
        self.spans: List[tuple] = []
        self.spans_total = 0
        self.tag = ""
        self._code_layer: Dict[object, str] = {}
        self._stack: List[tuple] = []
        self._current = HARNESS
        self._last = 0
        self._open_index = -1

    # ------------------------------------------------------------------ hook

    def _classify(self, code) -> str:
        layer = layer_of_file(code.co_filename)
        if layer and code.co_qualname in self.watched:
            layer = "!" + layer  # marks a watched function; see _hook
        self._code_layer[code] = layer
        return layer

    def _hook(self, frame, event, _arg) -> None:
        if event == "c_call":
            # Builtins the harness itself calls are its own cost, not the
            # program's: keep them out of total.pycalls_per_op.
            self.calls[HARNESS if self._current is HARNESS else BUILTINS] += 1
            return
        if event == "call":
            code = frame.f_code
            layer = self._code_layer.get(code)
            if layer is None:
                layer = self._classify(code)
            if not layer:
                self.calls[HARNESS if self._current is HARNESS else STDLIB] += 1
                return
            if layer[0] == "!":
                self.watched[code.co_qualname] += 1
                layer = layer[1:]
            self.calls[layer] += 1
            # A layer frame: remember what to restore when it returns.
            if layer == self._current:
                self._stack.append(None)
                return
            now = time.perf_counter_ns()
            self.self_ns[self._current] += now - self._last
            self._last = now
            self._stack.append((self._current, now, self._open_index, code.co_name))
            self._current = layer
            self.spans_total += 1
            self._open_index = self.spans_total
            return
        if event == "return":
            layer = self._code_layer.get(frame.f_code)
            if not layer or not self._stack:
                return
            opened = self._stack.pop()
            if opened is None:
                return
            now = time.perf_counter_ns()
            self.self_ns[self._current] += now - self._last
            self._last = now
            caller, start, parent, name = opened
            if len(self.spans) < SPAN_CAP:
                self.spans.append(
                    (name, self._current, start, now, parent, self._open_index, self.tag)
                )
            self._current = caller
            self._open_index = parent

    # ----------------------------------------------------------------- control

    def start(self) -> None:
        """Begin tracing from the calling (harness) frame."""
        self._stack.clear()
        self._current = HARNESS
        self._open_index = -1
        self._last = time.perf_counter_ns()
        sys.setprofile(self._hook)

    def stop(self) -> None:
        """Stop tracing and close the books on the current layer."""
        sys.setprofile(None)
        now = time.perf_counter_ns()
        self.self_ns[self._current] += now - self._last
        self._last = now
        self._stack.clear()
        self._current = HARNESS

    # ---------------------------------------------------------------- reporting

    def total_calls(self) -> int:
        """Every counted call except the harness's own frames."""
        return sum(n for name, n in self.calls.items() if name != HARNESS)

    def total_self_ns(self) -> int:
        """Sum of all layers' self time (== traced wall between start/stop)."""
        return sum(self.self_ns.values())

    def span_rows(self) -> List[dict]:
        """The retained raw spans as JSON-ready dicts."""
        return [
            {"name": f"{layer}:{name}", "start_ns": start, "end_ns": end,
             "parent": parent, "id": index, "tag": tag}
            for name, layer, start, end, parent, index, tag in self.spans
        ]
