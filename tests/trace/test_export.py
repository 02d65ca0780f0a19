"""Chrome trace_event export."""

import json

from repro.simkernel.kernel import SimKernel
from repro.trace.export import chrome_trace, write_chrome_trace
from repro.trace.recorder import SpanRecorder


def sample_recorder():
    rec = SpanRecorder(SimKernel())
    root = rec.start("invoke Ping", "invoke", component="client:a")
    req = rec.start(
        "request Ping",
        "request",
        parent=root.context,
        component="client:a",
        link="wide-area",
    )
    handle = rec.start(
        "handle Ping", "handle", parent=req.context, component="application:O"
    )
    handle.annotate(cache="miss")
    rec.kernel.post(4.0, lambda: [rec.finish(s) for s in (handle, req, root)])
    rec.kernel.run()
    return rec


class TestChromeTrace:
    def test_document_shape(self):
        doc = chrome_trace(sample_recorder().spans)
        assert doc["displayTimeUnit"] == "ms"
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert len(xs) == 3
        # One process_name record per distinct component.
        assert {m["args"]["name"] for m in metas} == {"client:a", "application:O"}

    def test_times_are_simulated_microseconds(self):
        doc = chrome_trace(sample_recorder().spans)
        root = next(e for e in doc["traceEvents"] if e["name"] == "invoke Ping")
        assert root["ts"] == 0.0
        assert root["dur"] == 4000.0  # 4 simulated ms

    def test_args_carry_ids_links_and_annotations(self):
        doc = chrome_trace(sample_recorder().spans)
        req = next(e for e in doc["traceEvents"] if e["name"] == "request Ping")
        handle = next(e for e in doc["traceEvents"] if e["name"] == "handle Ping")
        assert req["args"]["link"] == "wide-area"
        assert handle["args"]["parent_id"] == req["args"]["span_id"]
        assert handle["args"]["cache"] == "miss"

    def test_events_share_tid_per_trace(self):
        doc = chrome_trace(sample_recorder().spans)
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(tids) == 1

    def test_written_file_is_valid_json_and_deterministic(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_chrome_trace(sample_recorder().spans, str(a))
        write_chrome_trace(sample_recorder().spans, str(b))
        assert json.loads(a.read_text())["traceEvents"]
        assert a.read_bytes() == b.read_bytes()

    def test_open_spans_export_with_zero_duration(self):
        rec = SpanRecorder(SimKernel())
        rec.start("dangling", "invoke", component="client:a")
        doc = chrome_trace(rec.spans)
        event = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert event["dur"] == 0.0
