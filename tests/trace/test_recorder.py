"""Unit tests for TraceContext, Span, and SpanRecorder."""

from repro.simkernel.kernel import SimKernel
from repro.trace.context import TraceContext
from repro.trace.recorder import SpanRecorder


def make_recorder():
    return SpanRecorder(SimKernel())


class TestTraceContext:
    def test_frozen_value_semantics(self):
        a = TraceContext(1, 2, 3)
        b = TraceContext(1, 2, 3)
        assert a == b
        assert hash(a) == hash(b)


class TestSpanRecorder:
    def test_none_parent_roots_a_fresh_trace(self):
        rec = make_recorder()
        a = rec.start("op-a", "invoke")
        b = rec.start("op-b", "invoke")
        assert a.parent_id == b.parent_id == 0
        assert a.trace_id != b.trace_id

    def test_children_inherit_the_trace(self):
        rec = make_recorder()
        root = rec.start("op", "invoke")
        child = rec.start("req", "request", parent=root.context)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id

    def test_span_ids_are_sequential(self):
        rec = make_recorder()
        ids = [rec.start(f"s{i}", "invoke").span_id for i in range(4)]
        assert ids == [1, 2, 3, 4]

    def test_finish_is_idempotent_and_stamps_kernel_time(self):
        rec = make_recorder()
        span = rec.start("op", "invoke")
        rec.kernel.post(5.0, lambda: rec.finish(span))
        rec.kernel.run()
        first_end = span.end
        rec.finish(span, "late-status")  # end already set: kept
        assert span.end == first_end == 5.0
        assert span.status == "late-status"

    def test_finish_default_keeps_ok(self):
        rec = make_recorder()
        span = rec.start("op", "invoke")
        rec.finish(span)
        assert span.status == "ok"

    def test_instant_spans_have_zero_duration(self):
        rec = make_recorder()
        span = rec.instant("hit", "resolve", cache="hit")
        assert span.end == span.start
        assert span.annotations == {"cache": "hit"}

    def test_annotate_via_context(self):
        rec = make_recorder()
        span = rec.start("op", "invoke")
        rec.annotate(span.context, target="X")
        rec.annotate(None, ignored=True)  # no-op, no raise
        assert span.annotations == {"target": "X"}

    def test_clear_drops_spans_but_not_counters(self):
        rec = make_recorder()
        first = rec.start("a", "invoke")
        rec.clear()
        assert rec.spans == []
        second = rec.start("b", "invoke")
        # Ids keep counting: unique across the whole run, and the
        # allocation sequence stays a pure function of execution order.
        assert second.span_id > first.span_id
        assert second.trace_id > first.trace_id

    def test_len_counts_spans(self):
        rec = make_recorder()
        rec.start("a", "invoke")
        rec.instant("b", "event")
        assert len(rec) == 2
