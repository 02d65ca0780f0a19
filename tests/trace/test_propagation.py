"""End-to-end causal tracing through a live Legion system.

These tests exercise the wiring, not the recorder: contexts must ride
Message envelopes and CallEnvironments across every hop, the no-op mode
must leave the message plane untouched, and traced runs must stay
deterministic (the --jobs contract).
"""


from repro.experiments import e1_binding_path
from repro.system.legion import LegionSystem, SiteSpec
from repro.trace.ledger import LoadLedger
from repro.workloads.apps import CounterImpl


def build_system(seed=21):
    system = LegionSystem.build(
        [SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)], seed=seed
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    return system, cls


class TestPropagation:
    def test_one_call_yields_one_connected_trace(self):
        system, cls = build_system()
        target = system.create_instance(cls.loid)
        tracer = system.enable_tracing()
        client = system.new_client("t-client")
        system.call(target.loid, "Ping", client=client)

        assert tracer.spans
        trace_ids = {s.trace_id for s in tracer.spans}
        assert len(trace_ids) == 1  # every hop joined the same trace
        by_id = {s.span_id: s for s in tracer.spans}
        roots = [s for s in tracer.spans if s.parent_id == 0]
        assert len(roots) == 1
        assert roots[0].kind == "invoke"
        for span in tracer.spans:
            if span.parent_id:
                assert span.parent_id in by_id  # fully connected tree
            assert span.end is not None  # nothing left dangling

    def test_server_side_spans_carry_component_labels(self):
        system, cls = build_system()
        target = system.create_instance(cls.loid)
        tracer = system.enable_tracing()
        system.call(target.loid, "Ping", client=system.new_client("t2"))
        handles = [s for s in tracer.spans if s.kind == "handle"]
        assert handles
        assert any(s.component.startswith("binding-agent:") for s in handles)
        assert any(s.component.startswith("application:") for s in handles)

    def test_span_labels_are_the_metrics_component_ids(self):
        # The server formats its label once; it must read as str(ComponentId).
        system, cls = build_system()
        system.create_instance(cls.loid)
        servers = [
            *system.core.servers.values(),
            *system.host_servers.values(),
            *system.magistrates.values(),
            *system.agents.values(),
            system.console,
        ]
        for host_server in system.host_servers.values():
            servers += [entry.server for entry in host_server.impl.processes.running()]
        for server in servers:
            assert server._component_label == str(server.component)
            assert server.runtime.component_label == server._component_label

    def test_request_spans_record_link_class_and_status(self):
        system, cls = build_system()
        target = system.create_instance(cls.loid)
        tracer = system.enable_tracing()
        system.call(target.loid, "Ping", client=system.new_client("t3"))
        requests = [s for s in tracer.spans if s.kind == "request"]
        assert requests
        assert all(
            s.link in ("same-host", "same-site", "wide-area") for s in requests
        )
        assert all(s.status == "ok" for s in requests)

    def test_nested_server_calls_stay_in_the_callers_trace(self):
        # A cold resolve makes the Binding Agent invoke further objects
        # from *inside* its dispatched method; those inner invokes must
        # parent under the agent's handle span, not root new traces.
        system, cls = build_system()
        target = system.create_instance(cls.loid)
        tracer = system.enable_tracing()
        system.call(target.loid, "Ping", client=system.new_client("t4"))
        agent_invokes = [
            s
            for s in tracer.spans
            if s.kind == "invoke" and s.component.startswith("binding-agent:")
        ]
        assert agent_invokes
        by_id = {s.span_id: s for s in tracer.spans}
        for span in agent_invokes:
            assert by_id[span.parent_id].kind == "handle"


class TestNoOpMode:
    def test_tracing_is_off_by_default(self):
        system, cls = build_system()
        assert system.services.tracer is None
        target = system.create_instance(cls.loid)
        client = system.new_client("off")
        system.call(target.loid, "Ping", client=client)
        # The hot-path side tables never populate in no-op mode.
        assert client.runtime._request_spans == {}

    def test_disable_returns_to_noop(self):
        system, cls = build_system()
        tracer = system.enable_tracing()
        system.disable_tracing()
        target = system.create_instance(cls.loid)
        system.call(target.loid, "Ping", client=system.new_client("off2"))
        assert tracer.spans == []
        assert system.services.tracer is None

    def test_reset_measurements_clears_spans(self):
        system, cls = build_system()
        target = system.create_instance(cls.loid)
        tracer = system.enable_tracing()
        system.call(target.loid, "Ping", client=system.new_client("warm"))
        assert tracer.spans
        system.reset_measurements()
        assert tracer.spans == []


class TestDeterminism:
    def test_identical_span_trees_and_files_across_runs(self, tmp_path):
        def traced_run(subdir):
            out = tmp_path / subdir
            result = e1_binding_path.run(quick=True, seed=5, trace=str(out))
            assert result.passed, result.render()
            return (out / "e1-seed5.trace.json").read_bytes(), result.render()

        bytes_a, report_a = traced_run("a")
        bytes_b, report_b = traced_run("b")
        assert bytes_a == bytes_b
        # Reports embed the trace path; normalise the directory away.
        assert report_a.replace(str(tmp_path / "a"), "") == report_b.replace(
            str(tmp_path / "b"), ""
        )

    def test_span_ids_follow_execution_order(self):
        def spans_of(seed):
            system, cls = build_system(seed=seed)
            target = system.create_instance(cls.loid)
            tracer = system.enable_tracing()
            system.call(target.loid, "Ping", client=system.new_client("d"))
            return [
                (s.span_id, s.parent_id, s.kind, s.name, s.component, s.start)
                for s in tracer.spans
            ]

        assert spans_of(3) == spans_of(3)


class TestLedgerOverLiveTraffic:
    def test_ledger_matches_metric_counters(self):
        system, cls = build_system()
        target = system.create_instance(cls.loid)
        tracer = system.enable_tracing()
        system.reset_measurements()
        system.call(target.loid, "Ping", client=system.new_client("led"))
        ledger = LoadLedger(tracer.spans)
        assert ledger.loads() == system.services.metrics.labelled_counts()
