"""The layered performance ledger: one command, every metric by name.

Two ways in:

* **driver mode** -- ``run.py --workload W --seed S --seconds N --trace 0|1``
  runs one workload in this process and prints, as the last line of stdout,
  one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
  ``BENCHMARK.json``'s end-to-end metrics (``--trace 0``) or its per-layer
  metrics (``--trace 1``).
* **ledger mode** -- no ``--trace``: runs every requested workload (default
  all seven) in a fresh interpreter each, one child at a time, with both
  passes, then the (c) direct benches at full batch count, prints the whole
  table and writes ``out/<run>/results.json`` for ``compare.py``.

Exit status is non-zero when a workload's verification fails, its sim digest
or an exact count differs from ``expected.json``, or the names printed differ
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"run.py: no program to measure: {SRC}/repro is missing")
sys.path[:0] = [HERE, SRC]

import catalog  # noqa: E402  (sibling modules, after the path is set)
import direct  # noqa: E402
from measure import Stopwatch, digest, median, peak_rss_mb, percentile, spread, tail  # noqa: E402
from tracer import HARNESS, LAYERS, LayerTracer  # noqa: E402
from workloads import WORKLOAD_CLASSES  # noqa: E402

#: Set-up is repeated (a fresh system each time) until this many samples or
#: this many seconds, whichever first; ``setup_s`` is their median.
SETUP_REPEATS = 9
SETUP_BUDGET_S = 3.0
#: The traced pass runs this share of the checkpoint's batches.
TRACED_SCALE = 0.1
#: (c) batches per bench: driver runs (no bound on these) vs ledger mode.
DIRECT_BATCHES_DRIVER = 11
DIRECT_BATCHES_LEDGER = 31
#: Functions counted by name in the traced pass, for counts the program
#: keeps no public counter for.
WATCH = ("PersistentStore.write", "PersistentStore.read")


# ------------------------------------------------------------------ one pass


def run_pass(cls, seed: int, scale: float, seconds: float, *, traced: bool,
             setup_repeats: int) -> dict:
    """Set a workload up, run its batches, verify; returns raw measurements."""
    setup_watch = Stopwatch()  # set-up is interpreter-bound on every workload
    setups: List[float] = []
    spent = 0.0
    while True:
        work = cls(seed, scale, record_latency=not traced)
        _, wall, calibrated = setup_watch.measure(work.setup)
        setups.append(calibrated)
        spent += wall
        if len(setups) >= setup_repeats or spent >= SETUP_BUDGET_S:
            break
    tracer = LayerTracer(watch=WATCH) if traced else None

    def one_batch(i: int) -> int:
        if tracer is None:
            return work.run_batch(i)
        tracer.tag = f"batch{i}"
        tracer.start()
        try:
            return work.run_batch(i)
        finally:
            tracer.stop()

    gc.collect()  # GC stays on; start the timed region from a clean heap
    first = work.counters()
    walls: List[float] = []  # calibrated seconds per batch
    raw_walls: List[float] = []
    ops: List[int] = []
    events: List[int] = []
    peak_pending = 0
    checkpoint: Optional[dict] = None
    watch = Stopwatch(cls.calibration)
    started = time.perf_counter()
    i = 0
    while True:
        work.prepare(i)
        before = work.events()
        with work.phases.span("run.batch"):
            n, wall, calibrated = watch.measure(one_batch, i)
        walls.append(calibrated)
        raw_walls.append(wall)
        ops.append(n)
        events.append(work.events() - before)
        peak_pending = max(peak_pending, work.pending_events())
        i += 1
        if i == work.batches:
            checkpoint = {
                # Public counters, timed start -> here.
                "delta": {k: v - first.get(k, 0) for k, v in work.counters().items()},
                "ops": sum(ops),
                "latencies": len(work.latencies or ()),
                "parts": work.digest_parts(),
                "peak_pending": peak_pending,
                "rss_mb": peak_rss_mb(),
            }
        if i >= work.batches and (
            traced or not work.extendable or time.perf_counter() - started >= seconds
        ):
            break
    work.verify()
    return {
        "work": work, "setups": setups, "walls": walls, "raw_walls": raw_walls,
        "ops": ops, "events": events, "checkpoint": checkpoint,
        "tracer": tracer, "speeds": watch.speeds,
    }


# ------------------------------------------------------------------- metrics


def metric_row(name: str, value: float, samples=None, **extra) -> dict:
    """One metric row; the unit comes from the catalog, and ``samples`` (the
    per-batch values behind a median) add their spread and count."""
    out = {"value": value, "unit": catalog.lookup(name).unit, **extra}
    if samples is not None and len(samples) > 1:
        out["spread"] = spread(samples)
        out["n"] = len(samples)
    return out


def end_to_end(raw: dict) -> Dict[str, dict]:
    """The ledger's end-to-end metrics for one untraced pass."""
    work, walls, ops = raw["work"], raw["walls"], raw["ops"]
    ckpt = raw["checkpoint"]
    out: Dict[str, dict] = {}
    if work.equal_batches:
        rates = [n / w for n, w in zip(ops, walls, strict=True)]
        out["ops_per_s"] = metric_row("ops_per_s", ops[0] / median(walls), rates)
    else:
        out["ops_per_s"] = metric_row("ops_per_s", sum(ops) / sum(walls))
    if work.kernel_driven:
        per_event = [
            w / e * 1e6 for w, e in zip(walls, raw["events"], strict=True) if e
        ]
        out["us_per_event"] = metric_row("us_per_event", median(per_event), per_event)
    # No spread here: a handful of set-ups (the first one cold) says nothing
    # about how far two runs' medians differ.
    out["setup_s"] = metric_row("setup_s", median(raw["setups"]), n=len(raw["setups"]))
    out["peak_rss_mb"] = metric_row("peak_rss_mb", ckpt["rss_mb"])
    if "events" in ckpt["delta"]:
        out["events_per_op"] = metric_row("events_per_op", ckpt["delta"]["events"] / ckpt["ops"])
        out["msgs_per_op"] = metric_row("msgs_per_op", ckpt["delta"]["msgs"] / ckpt["ops"])
    # scenario_open fills its latencies in verify(), from the driver's own
    # records, so its checkpoint count is 0: take them all.
    latencies = (work.latencies or [])[: ckpt["latencies"] or None]
    if work.kernel_driven and latencies:
        pct, value = tail(latencies)
        out["sim_ms_per_op"] = metric_row("sim_ms_per_op", sum(latencies) / len(latencies))
        out["sim_ms_p99"] = metric_row("sim_ms_p99", value, n=len(latencies), percentile=pct)
    out["failed_share"] = metric_row("failed_share", work.failed / max(1, work.attempted))
    return out


def boundary_counts(raw: dict) -> Dict[str, dict]:
    """(b): ratios of public counters between timed start and checkpoint."""
    work, ckpt = raw["work"], raw["checkpoint"]
    d, ops = ckpt["delta"], ckpt["ops"]
    if not d:
        return {}

    def share(num: str, den: str) -> float:
        return d[num] / d[den] if d.get(den) else 0.0

    out = {
        "net.wan_msgs_per_op": d["msgs_wan"] / ops,
        "net.lan_msgs_per_op": d["msgs_lan"] / ops,
        "flow.shed_share": d.get("shed_calls", d.get("shed", 0)) / ops,
    }
    if work.kernel_driven:
        out.update({
            "naming.client_cache_hit_rate": share("cache_hits", "cache_lookups"),
            "binding.agent_requests_per_op": d["agent_served"] / ops,
            "binding.agent_cache_hit_rate": share("agent_hits", "agent_served"),
            "core.class_requests_per_op": d["class_requests"] / ops,
            "core.legion_class_requests_per_op": d["legion_class_requests"] / ops,
            "core.stale_per_op": d["stale"] / ops,
            "core.refreshes_per_op": d["refreshes"] / ops,
            "core.attempts_per_invocation": share("attempts", "invocations"),
            "jurisdiction.magistrate_requests_per_op": d["magistrate_requests"] / ops,
            "hosts.host_requests_per_op": d["host_requests"] / ops,
            "security.denied_share": d.get("denied", 0) / ops,
            "simkernel.peak_pending_events": ckpt["peak_pending"],
        })
    else:
        out["megascale.escalated_share"] = d["escalated"] / ops
        out["megascale.promotions_per_tick"] = d["promotions"] / d["ticks"]
    return {name: metric_row(name, value) for name, value in out.items()}


def attribution(raw: dict, untraced_us_per_op: float) -> Dict[str, dict]:
    """(a) + (d): per-layer calls and self time from the traced pass."""
    tracer, ops = raw["tracer"], sum(raw["ops"])
    wall_ns = sum(raw["walls"]) * 1e9
    # Self times are raw clock reads; scale them by the pass's machine speed.
    speed = sum(raw["walls"]) / sum(raw["raw_walls"])
    total_ns = tracer.total_self_ns()
    out: Dict[str, float] = {
        "py_builtins.pycalls_per_op": tracer.calls["py_builtins"] / ops,
        "py_stdlib.pycalls_per_op": tracer.calls["py_stdlib"] / ops,
        "total.pycalls_per_op": tracer.total_calls() / ops,
        "harness.trace_overhead_x": wall_ns / ops / 1e3 / untraced_us_per_op,
        "load.generator_share": tracer.self_ns[HARNESS] / total_ns,
    }
    for layer in LAYERS:
        out[f"{layer}.pycalls_per_op"] = tracer.calls[layer] / ops
    if raw["work"].kernel_driven:
        writes, reads = (tracer.watched[name] for name in WATCH)
        out["persistence.opr_writes_per_op"] = writes / ops
        out["persistence.opr_reads_per_op"] = reads / ops
    rows = {name: metric_row(name, value) for name, value in out.items()}
    for layer in LAYERS:
        name = f"{layer}.self_us_per_op"
        rows[name] = metric_row(name, tracer.self_ns[layer] * speed / ops / 1e3,
                         share=tracer.self_ns[layer] / total_ns)
    return rows


def load_shape(raw: dict) -> Dict[str, dict]:
    batch_us = [w * 1e6 for w in raw["walls"]]
    return {
        "load.machine_speed_x": metric_row("load.machine_speed_x", median(raw["speeds"]),
                                    raw["speeds"]),
        "load.raw_ops_per_s": metric_row("load.raw_ops_per_s",
                                  sum(raw["ops"]) / sum(raw["raw_walls"])),
        "load.batches": metric_row("load.batches", len(batch_us)),
        "load.batch_us_p50": metric_row("load.batch_us_p50", percentile(batch_us, 50)),
        "load.batch_us_p95": metric_row("load.batch_us_p95", percentile(batch_us, 95)),
    }


def sweep_walls(raw: dict, setup_s: float) -> Dict[str, dict]:
    """``experiments.*`` from the one sweep the quick_sweep workload ran."""
    work = raw["work"]
    walls = dict(zip(work.names, raw["walls"], strict=True))  # calibrated, per experiment
    named = {f"experiments.{n}_wall_s": walls.get(n, 0.0) for n in ("e14", "e15", "e17", "e18")}
    named["experiments.rest_wall_s"] = sum(walls.values()) - sum(named.values())
    named["experiments.import_s"] = setup_s
    named["experiments.render_s"] = sum(work.phases.seconds("render").values())
    return {name: metric_row(name, value) for name, value in named.items()}


# ------------------------------------------------------------- one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0,
                 direct_batches: int = 0, out_dir: Optional[str] = None) -> dict:
    """Both passes of one workload; returns its result record."""
    cls = WORKLOAD_CLASSES[name]
    raw = run_pass(cls, seed, scale, seconds, traced=False, setup_repeats=SETUP_REPEATS)
    work = raw["work"]
    metrics = end_to_end(raw)
    metrics.update(boundary_counts(raw))
    metrics.update(load_shape(raw))
    if name == "quick_sweep":
        metrics.update(sweep_walls(raw, metrics["setup_s"]["value"]))
    record = {
        "attempted": work.attempted,
        "failed": work.failed,
        "digest": digest(raw["checkpoint"]["parts"]),
        "checkpoint_ops": raw["checkpoint"]["ops"],
        "setup_split_s": work.phases.seconds("setup."),
        "metrics": metrics,
    }
    if trace:
        traced = run_pass(cls, seed, scale * TRACED_SCALE, 0.0, traced=True, setup_repeats=1)
        us_per_op = sum(raw["walls"]) / sum(raw["ops"]) * 1e6
        metrics.update(attribution(traced, us_per_op))
        record["failed"] += traced["work"].failed
        record["traced_ops"] = sum(traced["ops"])
        if out_dir:
            write_trace(out_dir, name, seed, traced)
        if direct_batches:
            for key, value in direct.run_all(direct_batches).items():
                metrics[key] = metric_row(key, value)
    record["correct"] = record["failed"] == 0
    return record


def write_trace(out_dir: str, name: str, seed: int, traced: dict) -> None:
    """Spans and the per-layer table, written once, after the run."""
    tracer = traced["tracer"]
    os.makedirs(out_dir, exist_ok=True)
    total = tracer.total_self_ns()
    table = {
        layer: {"calls": tracer.calls[layer], "self_ns": tracer.self_ns.get(layer, 0),
                "share": tracer.self_ns.get(layer, 0) / total if total else 0.0}
        for layer in tracer.calls
    }
    with open(os.path.join(out_dir, "trace.json"), "w") as fh:
        json.dump(
            {
                "workload": name, "seed": seed, "ops": sum(traced["ops"]),
                "traced_wall_ns": int(sum(traced["raw_walls"]) * 1e9),  # uncalibrated
                "self_ns_total": total, "layers": table,
                "spans_total": tracer.spans_total, "spans_kept": len(tracer.spans),
                "phases": traced["work"].phases.spans, "spans": tracer.span_rows(),
            },
            fh,
        )


# ------------------------------------------------------------------ checking


def load_json(name: str) -> dict:
    path = os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name)
    with open(path) as fh:
        return json.load(fh)


def expected_for(name: str, seed: int, scale: float) -> Optional[dict]:
    """``expected.json``'s entry for a full-size run of a seed it holds."""
    if scale != 1.0:
        return None
    return load_json("expected.json").get(str(seed), {}).get(name)


def check_expected(name: str, record: dict, want: dict) -> List[str]:
    """A record's digest and exact counts against an ``expected.json`` entry."""
    problems = []
    if record["digest"] != want["digest"]:
        problems.append(f"{name}: sim digest {record['digest'][:12]} != expected "
                        f"{want['digest'][:12]} (a simulated statistic moved)")
    for metric, value in want["exact"].items():
        got = record["metrics"].get(metric, {}).get("value")
        if got is not None and got != value:
            problems.append(f"{name}: {metric} = {got!r}, expected exactly {value!r}")
    return problems


def exact_counts(record: dict) -> Dict[str, float]:
    """The exact metrics of a record, as ``expected.json`` stores them."""
    return {
        name: row["value"]
        for name, row in sorted(record["metrics"].items())
        if catalog.lookup(name).exact
    }


# ------------------------------------------------------------------ printing


def print_record(name: str, record: dict) -> None:
    print(f"== {name}: attempted {record['attempted']} failed {record['failed']} "
          f"digest {record['digest'][:16]} checkpoint_ops {record['checkpoint_ops']}")
    for metric, row in record["metrics"].items():
        extra = "".join(
            f" {key}={row[key]:.4g}" for key in ("spread", "share", "percentile") if key in row
        )
        if "n" in row:
            extra += f" n={row['n']}"
        print(f"  {metric:<44} {row['value']:>16.6g} {row['unit']}{extra}")


def driver_line(record: dict, trace: bool) -> str:
    """The contract's last line: exactly the driver's metric names."""
    bench = load_json("BENCHMARK.json")
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    metrics = {}
    for metric in names:
        row = record["metrics"].get(metric)
        unit = catalog.lookup(metric).unit
        # A per-layer metric this workload does not define reads 0 here;
        # results.json and the printed table leave it out instead.
        metrics[metric] = {"value": row["value"] if row else 0.0, "unit": unit}
    return json.dumps({
        "correct": record["correct"], "attempted": max(1, record["attempted"]),
        "failed": record["failed"], "metrics": metrics,
    })


# ---------------------------------------------------------------------- main


def ledger(args) -> int:
    """Every workload in its own interpreter, then the direct benches."""
    run_dir = os.path.join(HERE, "out", args.run or f"seed{args.seed}")
    os.makedirs(run_dir, exist_ok=True)
    results = {"schema": 1, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for name in args.workload or list(catalog.WORKLOADS):
        child_out = os.path.join(run_dir, f"{name}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "1",
               "--scale", str(args.scale), "--direct-batches", "0",
               "--json-out", child_out, "--run", os.path.basename(run_dir)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.writelines(  # the table, not the driver's JSON line
            line for line in proc.stdout.splitlines(True) if not line.startswith("{")
        )
        status |= proc.returncode
        if os.path.exists(child_out):
            with open(child_out) as fh:
                results["workloads"][name] = json.load(fh)
            os.remove(child_out)
    layers = {
        key: metric_row(key, value)
        for key, value in direct.run_all(DIRECT_BATCHES_LEDGER).items()
    }
    results["direct"] = layers
    print("== direct (each layer alone; median of "
          f"{DIRECT_BATCHES_LEDGER} batches)")
    for key, row in layers.items():
        print(f"  {key:<44} {row['value']:>16.6g} {row['unit']}")
    path = os.path.join(run_dir, "results.json")
    with open(path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"results: {os.path.relpath(path, ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=list(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long a timed region lasts (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="driver mode: 0 = end-to-end metrics, 1 = per-layer")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="share of the checkpoint size (tests use 0.01)")
    parser.add_argument("--direct-batches", type=int, default=DIRECT_BATCHES_DRIVER)
    parser.add_argument("--json-out", help="also write the full record here")
    parser.add_argument("--run", help="name of the out/<run> directory")
    parser.add_argument("--write-expected", action="store_true",
                        help="print this run's expected.json entry instead of checking it")
    args = parser.parse_args(argv)

    bench = load_json("BENCHMARK.json")
    problems = catalog.check_names(bench)
    if problems:
        print("run.py: names differ from BENCHMARK.json:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.trace is None:
        return ledger(args)
    if not args.workload or len(args.workload) != 1:
        parser.error("driver mode (--trace) takes exactly one --workload")

    name = args.workload[0]
    out_dir = os.path.join(HERE, "out", args.run or f"{name}-seed{args.seed}", name)
    record = run_workload(name, args.seed, args.seconds, bool(args.trace), args.scale,
                          args.direct_batches, out_dir)
    print_record(name, record)
    if args.write_expected:
        print(json.dumps({"digest": record["digest"], "exact": exact_counts(record)}))
        return 0
    want = expected_for(name, args.seed, args.scale)
    problems = check_expected(name, record, want) if want else []
    for problem in problems:
        print("run.py: " + problem, file=sys.stderr)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(record, fh)
    if problems or not record["correct"]:
        if not record["correct"]:
            print(f"run.py: {name}: {record['failed']} of {record['attempted']} ops failed "
                  "verification", file=sys.stderr)
        return 1
    print(driver_line(record, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
