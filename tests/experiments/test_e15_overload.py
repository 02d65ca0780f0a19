"""E15 goodput-under-overload: traced runs, audits, and the --overload knob."""

from __future__ import annotations

import json
import os

from repro.experiments.e15_overload import EXPERIMENT as E15


def test_traced_overload_run_audits_and_exports(tmp_path):
    trace_dir = str(tmp_path / "traces")
    report_dir = str(tmp_path / "reports")
    result = E15.run(
        quick=True, seed=0, overload=2, trace=trace_dir, report=report_dir
    )
    failed = [c for c in result.checks if not c.passed]
    assert not failed, [str(c) for c in failed]
    # --overload clamps the sweep: top level is the requested multiplier.
    audit_checks = [c for c in result.checks if "trace:" in c.name]
    assert audit_checks, "traced runs must carry TraceAudit findings"
    # Per-level artifacts landed on disk.
    traces = os.listdir(trace_dir)
    assert traces and all(name.endswith(".json") for name in traces)
    report_files = os.listdir(report_dir)
    assert any("e15-overload" in name for name in report_files)
    payload = json.loads(
        (tmp_path / "reports" / "e15-overload-seed0.json").read_text()
    )
    assert payload["levels"], payload.keys()


def test_overload_multiplier_overrides_the_sweep_top():
    result = E15.run(quick=True, seed=0, overload=3)
    assert all(c.passed for c in result.checks), [str(c) for c in result.checks if not c.passed]
    assert max(x for x, _ in result.recorder._rows) == 3
