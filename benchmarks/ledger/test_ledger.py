"""The ledger checks itself: ``PYTHONPATH=src pytest benchmarks/ledger``.

Every workload runs at 1 % size (the sweep: four cheap experiments).  Not
part of tier-1 (``testpaths`` stays ``tests``).
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.core.object_base import legion_method  # noqa: E402
from tracer import LAYERS  # noqa: E402

SCALE = 0.01
RICH = ("warm_call", "cold_bind", "lifecycle_churn", "scenario_open")
MEGA = ("mega_dense", "mega_sparse")


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    """Each workload once at seed 0, traced, with its trace written."""
    out = tmp_path_factory.mktemp("ledger")
    saved, run.SETUP_REPEATS = run.SETUP_REPEATS, 1
    try:
        return {
            name: run.run_workload(name, 0, 0.0, True, SCALE, 0, str(out / name))
            for name in catalog.WORKLOADS
        }, out
    finally:
        run.SETUP_REPEATS = saved


def exact(record):
    return run.exact_counts(record)


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_declared_metrics_present_and_correct(records, name):
    record = records[0][name]
    assert record["correct"] and record["failed"] == 0 and record["attempted"] >= 1
    metrics = record["metrics"]
    want = {"ops_per_s", "setup_s", "peak_rss_mb", "failed_share"}
    if name in RICH:
        want |= set(catalog.END_TO_END)
    if name in MEGA:
        want |= {"events_per_op", "msgs_per_op", "megascale.escalated_share"}
    want |= {f"{layer}.pycalls_per_op" for layer in LAYERS}
    want |= {f"{layer}.self_us_per_op" for layer in LAYERS}
    want |= {"total.pycalls_per_op", "harness.trace_overhead_x", "load.generator_share",
             "load.batches", "load.batch_us_p50", "load.batch_us_p95",
             "load.machine_speed_x", "load.raw_ops_per_s"}
    assert want <= set(metrics), sorted(want - set(metrics))
    assert set(metrics) <= set(catalog.END_TO_END) | set(catalog.PER_LAYER)
    for row in metrics.values():
        assert row["unit"] and isinstance(row["value"], (int, float))


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_counts_repeat_for_a_seed_and_differ_across_seeds(records, name):
    first = records[0][name]
    again = run.run_workload(name, 0, 0.0, True, SCALE, 0)
    other = run.run_workload(name, 1, 0.0, True, SCALE, 0)
    assert again["digest"] == first["digest"]
    assert exact(again) == exact(first)
    assert other["digest"] != first["digest"]


def test_driver_line_has_exactly_the_declared_names(records):
    bench = run.load_json("BENCHMARK.json")
    assert not catalog.check_names(bench)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run.driver_line(records[0]["warm_call"], trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in bench[key]]
    assert all(row["value"] != 0 for row in json.loads(
        run.driver_line(records[0]["quick_sweep"], False))["metrics"].values())


def test_wrong_return_value_raises_failed_share(monkeypatch):
    class OffByOne(workloads.CounterImpl):
        @legion_method("int Increment(int)")
        def increment(self, amount: int) -> int:
            self.value += int(amount)
            return self.value + 1

    monkeypatch.setattr(workloads, "CounterImpl", OffByOne)
    record = run.run_workload("warm_call", 0, 0.0, False, SCALE)
    assert not record["correct"]
    assert record["metrics"]["failed_share"]["value"] > 0.2  # every Increment


def test_perturbed_digest_fails_the_run(monkeypatch, capsys):
    argv = ["--workload", "lifecycle_churn", "--seed", "0", "--seconds", "0",
            "--trace", "0", "--scale", str(SCALE)]
    assert run.main(argv) == 0
    monkeypatch.setattr(
        run, "expected_for", lambda name, seed, scale: {"digest": "0" * 64, "exact": {}}
    )
    assert run.main(argv) == 1
    assert "sim digest" in capsys.readouterr().err


def test_moved_exact_count_fails_the_run(monkeypatch):
    record = run.run_workload("lifecycle_churn", 0, 0.0, False, SCALE)
    want = {"digest": record["digest"], "exact": dict(exact(record))}
    assert not run.check_expected("lifecycle_churn", record, want)
    want["exact"]["msgs_per_op"] += 1
    assert run.check_expected("lifecycle_churn", record, want)


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_span_self_times_sum_to_traced_wall(records, name):
    with open(records[1] / name / "trace.json") as fh:
        trace = json.load(fh)
    assert abs(trace["self_ns_total"] - trace["traced_wall_ns"]) <= 0.02 * trace["traced_wall_ns"]
    assert trace["spans_kept"] == len(trace["spans"]) <= trace["spans_total"]
    by_id = {span["id"]: span for span in trace["spans"]}
    for span in trace["spans"]:
        assert span["end_ns"] >= span["start_ns"]
        parent = by_id.get(span["parent"])
        if parent is not None:  # children nest inside their parent
            assert parent["start_ns"] <= span["start_ns"] and span["end_ns"] <= parent["end_ns"]
    assert {"run.batch", "verify"} <= {phase["name"] for phase in trace["phases"]}


@pytest.mark.parametrize("name", list(catalog.WORKLOADS))
def test_load_generator_share_is_small(records, name):
    assert records[0][name]["metrics"]["load.generator_share"]["value"] < 0.10


def test_intended_layers_carry_the_load(records):
    metrics = {name: record["metrics"] for name, record in records[0].items()}
    warm, cold, churn = metrics["warm_call"], metrics["cold_bind"], metrics["lifecycle_churn"]
    assert warm["events_per_op"]["value"] == 4 and warm["msgs_per_op"]["value"] == 2
    assert warm["binding.agent_requests_per_op"]["value"] == 0
    assert warm["core.class_requests_per_op"]["value"] == 0
    assert cold["binding.agent_requests_per_op"]["value"] > 0.5
    assert cold["core.class_requests_per_op"]["value"] > 0.2
    assert churn["persistence.opr_writes_per_op"]["value"] >= 1
    for name in MEGA:
        assert metrics[name]["megascale.self_us_per_op"]["share"] > 0.5


def test_compare_verdicts():
    def result(value, spread=0.01, digest="d"):
        row = {"value": value, "unit": "op/s", "spread": spread}
        exact_row = {"value": 4, "unit": "count"}
        return {"seed": 0, "workloads": {"warm_call": {
            "digest": digest, "attempted": 10, "failed": 0,
            "metrics": {"ops_per_s": row, "events_per_op": exact_row}}}}

    sink = open(os.devnull, "w")
    assert compare.compare(result(100.0), result(95.0), out=sink) == 0  # within 10 %
    assert compare.compare(result(100.0), result(80.0), out=sink) == 1  # worse
    assert compare.compare(result(100.0), result(100.0, digest="e"), out=sink) == 1
    assert compare.verdict("ops_per_s", {"value": 100.0, "spread": 0.3},
                           {"value": 80.0}) == "unresolved"
    assert compare.verdict("events_per_op", {"value": 4}, {"value": 5}) == "worse"
    assert compare.verdict("events_per_op", {"value": 4}, {"value": 3}) == "better"
    assert compare.verdict("net.send_deliver_ns", {"value": 1.0}, {"value": 9.0}) == "info"
