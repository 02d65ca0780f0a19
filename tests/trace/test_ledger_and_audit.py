"""LoadLedger shape extraction and the TraceAudit assertions."""

import pytest

from repro.simkernel.kernel import SimKernel
from repro.trace.audit import TraceAudit, load_slope_finding
from repro.trace.ledger import LoadLedger
from repro.trace.recorder import SpanRecorder


def walk(rec, caller, tiers):
    """One logical operation: a request/handle chain through ``tiers``."""
    root = rec.start("invoke Op", "invoke", component=caller)
    parent = root
    for component in tiers:
        req = rec.start(
            "request Op", "request", parent=parent.context, component=parent.component
        )
        handle = rec.start(
            "handle Op", "handle", parent=req.context, component=component
        )
        parent = handle
    for span in reversed(rec.spans):
        rec.finish(span)
    return root


@pytest.fixture
def rec():
    return SpanRecorder(SimKernel())


class TestLoadLedger:
    def test_handled_counts_handle_spans_per_component(self, rec):
        walk(rec, "client:a", ["binding-agent:s0", "class-object:C"])
        walk(rec, "client:b", ["binding-agent:s0"])
        ledger = LoadLedger(rec.spans)
        assert ledger.handled == {
            "binding-agent:s0": 2,
            "class-object:C": 1,
        }
        assert ledger.loads("binding-agent:") == {"binding-agent:s0": 2}
        assert ledger.max_load() == ("binding-agent:s0", 2)
        assert ledger.max_load("magistrate:") == ("", 0)

    def test_fan_in_counts_distinct_senders(self, rec):
        walk(rec, "client:a", ["binding-agent:s0"])
        walk(rec, "client:b", ["binding-agent:s0"])
        walk(rec, "client:b", ["binding-agent:s0"])  # repeat sender
        ledger = LoadLedger(rec.spans)
        assert ledger.fan_ins("binding-agent:") == {"binding-agent:s0": 2}

    def test_hop_depth_is_max_request_chain(self, rec):
        walk(rec, "client:a", ["t1", "t2", "t3"])  # depth 3
        walk(rec, "client:b", ["t1"])  # depth 1
        ledger = LoadLedger(rec.spans)
        assert sorted(ledger.hop_depths()) == [1, 3]

    def test_parallel_fanout_is_not_depth(self, rec):
        # One operation sending two *sibling* requests is depth 1, not 2.
        root = rec.start("invoke", "invoke", component="client:a")
        for i in range(2):
            req = rec.start(
                "request", "request", parent=root.context, component="client:a"
            )
            rec.start(f"handle{i}", "handle", parent=req.context, component=f"s:{i}")
        ledger = LoadLedger(rec.spans)
        assert ledger.hop_depths() == [1]

    def test_empty_ledger(self):
        ledger = LoadLedger([])
        assert ledger.handled == {}
        assert ledger.hop_depths() == []


class TestTraceAudit:
    def test_hop_bound_pass_and_fail(self, rec):
        walk(rec, "client:a", ["t1", "t2"])
        assert TraceAudit(rec.spans).hop_bound(2).passed
        finding = TraceAudit(rec.spans).hop_bound(1)
        assert not finding.passed
        assert "max depth 2" in finding.detail

    def test_exact_depth(self, rec):
        walk(rec, "client:a", ["t1"])
        assert TraceAudit(rec.spans).exact_depth(1).passed
        assert not TraceAudit(rec.spans).exact_depth(2).passed
        assert not TraceAudit([]).exact_depth(1).passed  # vacuous != pass

    def test_fan_in_bound(self, rec):
        for client in ("a", "b", "c"):
            walk(rec, f"client:{client}", ["binding-agent:tree-l0-0"])
        audit = TraceAudit(rec.spans)
        assert audit.fan_in_bound(3, "binding-agent:tree-").passed
        assert not audit.fan_in_bound(2, "binding-agent:tree-").passed

    def test_fan_in_bound_requires_matching_components(self, rec):
        walk(rec, "client:a", ["binding-agent:flat0"])
        finding = TraceAudit(rec.spans).fan_in_bound(4, "binding-agent:tree-")
        assert not finding.passed
        assert "no components" in finding.detail

    def test_reconciliation_agrees_with_exact_counters(self, rec):
        walk(rec, "client:a", ["binding-agent:s0", "class-object:C"])
        audit = TraceAudit(rec.spans)
        counted = {"binding-agent:s0": 1, "class-object:C": 1, "client:a": 0}
        assert audit.reconciles_with(counted).passed

    def test_reconciliation_flags_mismatches(self, rec):
        walk(rec, "client:a", ["binding-agent:s0"])
        audit = TraceAudit(rec.spans)
        off_by_one = audit.reconciles_with({"binding-agent:s0": 2})
        assert not off_by_one.passed
        assert "binding-agent:s0" in off_by_one.detail
        missing = audit.reconciles_with({})
        assert not missing.passed

    def test_finding_renders_like_a_check(self, rec):
        walk(rec, "client:a", ["t1"])
        finding = TraceAudit(rec.spans).hop_bound(6)
        assert str(finding).startswith("[PASS] ")
        assert bool(finding)


class TestLoadSlope:
    def _points(self, loads):
        points = []
        for x, n in loads:
            rec = SpanRecorder(SimKernel())
            for i in range(n):
                walk(rec, f"client:{i}", ["binding-agent:s0"])
            points.append((float(x), LoadLedger(rec.spans)))
        return points

    def test_flat_load_passes(self):
        finding = load_slope_finding(
            self._points([(2, 3), (4, 3), (8, 3)]), "binding-agent:", limit=0.35
        )
        assert finding.passed

    def test_linear_growth_fails(self):
        finding = load_slope_finding(
            self._points([(2, 2), (4, 4), (8, 8)]), "binding-agent:", limit=0.35
        )
        assert not finding.passed
        assert "slope" in finding.detail

    def test_negligible_load_passes_outright(self):
        finding = load_slope_finding(
            self._points([(2, 0), (4, 1), (8, 0)]), "binding-agent:", limit=0.35
        )
        assert finding.passed
        assert "negligible" in finding.detail
