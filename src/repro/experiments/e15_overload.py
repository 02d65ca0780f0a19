"""E15 -- flow control turns overload collapse into a goodput plateau.

Claim: without flow control, offered load past a serial service's
capacity triggers the classic congestion-collapse spiral -- queues grow
without bound, every reply arrives after the caller's timeout, and the
timeout path's invalidate/refresh/retry machinery *multiplies* the
offered load (each logical call costs up to max_attempts wire requests),
so goodput falls toward zero.  With the repro.flow subsystem -- bounded
admission queues that shed with a server-computed ``retry_after``
pushback, caller-side credit windows, and shed replies exempted from the
stale-binding machinery -- the same service under the same overload keeps
a goodput plateau at >= 80% of its capacity with bounded latency for the
requests it does admit.

Method: one strictly serial service (``SerialServiceImpl``,
``service_time`` = 2 simulated ms, so capacity is exactly 0.5 requests
per ms) takes open-loop traffic from 4 clients at offered load x1..x10
capacity.  Two arms per level, identical except for the installed
FlowConfig: the *flow* arm runs admission control (capacity 1, queue 14,
application objects only) plus credit windows; the *baseline* arm runs
the historical no-flow path.  Every call's issue/settle times and outcome
(ok, shed, failed) are recorded; goodput is in-window successes per
simulated ms.  After each run every runtime must settle exactly --
``requests_sent == replies + timeouts + delivery_failures + cancelled +
shed`` with nothing pending -- and the three shed ledgers (metrics
counters, FaultLog observations, client-side wire sheds) must agree.
With ``--trace``, a TraceAudit additionally proves from the span record
that admitted concurrency never exceeded the configured capacity.
Everything runs on simulated time from seeded state: byte-identical
across ``--jobs 1`` and ``--jobs N``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.common import (
    Experiment,
    ExperimentResult,
    Flags,
    export_trace,
    serial_flow,
    settlement,
    trace_recorder,
    write_report,
)
from repro.faults.log import FaultLog
from repro.metrics.counters import MetricsRegistry
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem, SiteSpec
from repro.trace.audit import TraceAudit
from repro.workloads.apps import SerialServiceImpl
from repro.workloads.generators import OpenLoopDriver

#: Exclusive service per Work() call; capacity is its reciprocal.
SERVICE_TIME = 2.0
CAPACITY = 1.0 / SERVICE_TIME
N_CLIENTS = 4
#: Per-call deadline: generous against the ~30 ms worst admitted wait,
#: hopeless against an unbounded baseline backlog -- which is the point.
TIMEOUT = 60.0
#: Admitted-latency bound for the flow arm's in-window successes: queue
#: wait (<= 15 slots x 2 ms) + service + a few shed/pushback round trips.
P99_BOUND = 200.0

FLOW = serial_flow(SERVICE_TIME)


def _run_level(
    level: int,
    seed: int,
    quick: bool,
    flow: bool,
    trace: Optional[str],
) -> Dict[str, Any]:
    measure = 300.0 if quick else 1_000.0
    warmup = 100.0
    system = LegionSystem.build(
        [SiteSpec("main", hosts=2)], seed=seed, flow=FLOW if flow else None
    )
    # The shed observation ledger: _shed_reply reports every shed logical
    # request here, so the experiment can reconcile it against the
    # metrics counters and the clients' wire-level shed replies.
    system.services.fault_log = FaultLog()
    recorder = trace_recorder(system, trace) if flow else None
    cls = system.create_class(
        "SerialService", factory=lambda: SerialServiceImpl(service_time=SERVICE_TIME)
    )
    instance = system.create_instance(cls.loid)
    clients = [system.new_client(f"e15-{i}") for i in range(N_CLIENTS)]

    interval = N_CLIENTS / (level * CAPACITY)
    start = system.kernel.now
    # Client start phases are staggered across one interval so the offered
    # load is smooth rather than N-synchronised bursts.
    driver = OpenLoopDriver(
        system.kernel,
        clients,
        lambda _client: (instance.loid, "Work", ()),
        [(warmup + measure, interval)],
        stagger=interval / N_CLIENTS,
        timeout=TIMEOUT,
    )
    system.kernel.run_until_complete(driver.start(), max_events=50_000_000)
    system.kernel.run()  # drain the service backlog and late replies

    w0, w1 = start + warmup, start + warmup + measure
    issue, done = driver.log.ok_times()
    hit = (w0 <= done) & (done <= w1)
    ok_latencies = np.sort(done[hit] - issue[hit]).tolist()
    settled = settlement(system, clients, driver.log, system.services.fault_log)
    audits: List[Any] = []
    trace_path = None
    if recorder is not None:
        audit = TraceAudit(recorder.spans)
        audits.append(audit.admitted_load_bound(FLOW.capacity, prefix="application:"))
        audits.append(
            audit.shed_reconciles_with(
                system.services.metrics.labelled_counts(MetricsRegistry.SHED),
                prefix="application:",
            )
        )
        trace_path = export_trace(recorder, trace, f"e15-x{level}", seed)

    return {
        "goodput": len(ok_latencies) / measure,
        "p99": (
            ok_latencies[int(0.99 * (len(ok_latencies) - 1))]
            if ok_latencies
            else float("inf")
        ),
        **settled,
        "audits": audits,
        "trace_path": trace_path,
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


def units(quick: bool, flags: Flags) -> list:
    """The independent work units of one E15 sweep.

    Each unit is one (offered-load level, arm) pair; every unit builds
    its own single-site system from the seed and shares nothing with the
    others, so units may run in separate worker processes
    (``--jobs N``) in any order.
    """
    top = max(2, int(flags["overload"])) if flags["overload"] else 10
    base = [1, 2, 4] if quick else [1, 2, 3, 4, 6, 8]
    levels = [lvl for lvl in base if lvl < top] + [top]
    return [(level, arm) for level in levels for arm in ("flow", "baseline")]


def measure(unit, quick: bool, seed: int, flags: Flags) -> Dict[str, Any]:
    """Run one (level, arm) unit; the returned dict is picklable.

    The trace export (when tracing) happens worker-side; only its path
    travels back.  ``audits`` are :class:`AuditFinding` dataclasses --
    plain picklable records.
    """
    level, arm = unit
    out = _run_level(level, seed, quick, flow=arm == "flow", trace=flags["trace"])
    out["level"] = level
    out["arm"] = arm
    return out


def finish(partials, quick: bool, seed: int, flags: Flags) -> ExperimentResult:
    """Merge unit partials into the E15 result, in deterministic unit order.

    Partials are consumed in :func:`units` order regardless of
    worker completion order, so recorder rows, checks, float
    accumulation, and the report artifact are byte-identical to the
    sequential run.
    """
    by_unit = {(p["level"], p["arm"]): p for p in partials}
    recorder = SeriesRecorder(x_label="offered_x")
    result = ExperimentResult(
        experiment="E15",
        title="goodput under overload (admission control + backpressure)",
        claim=(
            "with admission control, credit windows, and retry pushback, a "
            "serial service under 10x offered load keeps >= 80% of its "
            "capacity as goodput with bounded latency, while the no-flow "
            "baseline collapses through timeout-driven retry amplification"
        ),
        recorder=recorder,
    )
    levels = sorted({level for level, _arm in units(quick, flags)})
    top = levels[-1]
    mid = 4 if 4 in levels else levels[len(levels) // 2]

    total_clock, total_events = 0.0, 0
    ratios: Dict[Tuple[int, str], float] = {}
    report_rows = []
    top_flow: Dict[str, Any] = {}
    mid_p99 = float("inf")
    for level in levels:
        fl = by_unit[(level, "flow")]
        bl = by_unit[(level, "baseline")]
        total_clock += fl["sim_clock"] + bl["sim_clock"]
        total_events += fl["sim_events"] + bl["sim_events"]
        ratios[(level, "flow")] = fl["goodput"] / CAPACITY
        ratios[(level, "base")] = bl["goodput"] / CAPACITY
        if level == mid:
            mid_p99 = fl["p99"]
        if level == top:
            top_flow = fl
        recorder.add(
            level,
            flow_goodput=round(fl["goodput"] / CAPACITY, 3),
            baseline_goodput=round(bl["goodput"] / CAPACITY, 3),
            flow_p99=round(fl["p99"], 1),
            sheds=fl["metrics_shed"],
        )
        for arm, out in (("flow", fl), ("baseline", bl)):
            result.check(
                f"x{level} {arm}: every request settles (shed included)",
                out["settled"],
                f"outcomes={out['outcomes']}",
            )
        result.check(
            f"x{level} flow: shed ledgers reconcile (metrics == FaultLog == wire)",
            fl["metrics_shed"] == fl["faultlog_shed"] == fl["wire_shed"],
            f"metrics={fl['metrics_shed']} faultlog={fl['faultlog_shed']} "
            f"wire={fl['wire_shed']}",
        )
        for finding in fl["audits"]:
            result.check(f"x{level} {finding.name}", finding.passed, finding.detail)
        report_rows.append(
            {
                "level": level,
                "flow_goodput": fl["goodput"],
                "baseline_goodput": bl["goodput"],
                "flow_p99": fl["p99"],
                "flow_outcomes": fl["outcomes"],
                "baseline_outcomes": bl["outcomes"],
                "sheds": fl["metrics_shed"],
            }
        )

    for level in (mid, top):
        result.check(
            f"x{level} flow: goodput plateau >= 80% of capacity",
            ratios[(level, "flow")] >= 0.8,
            f"{ratios[(level, 'flow')]:.2f}x capacity",
        )
    result.check(
        f"x{top} baseline: goodput collapses (<= 50% of capacity)",
        ratios[(top, "base")] <= 0.5,
        f"{ratios[(top, 'base')]:.2f}x capacity",
    )
    result.check(
        f"x{top} flow: p99 admitted latency bounded (<= {P99_BOUND:.0f} ms)",
        top_flow["p99"] <= P99_BOUND,
        f"p99={top_flow['p99']:.1f} ms over {top_flow['outcomes']['ok']} successes",
    )
    result.check(
        f"x{mid} flow: p99 admitted latency bounded (<= {P99_BOUND:.0f} ms)",
        mid_p99 <= P99_BOUND,
        f"p99={mid_p99:.1f} ms",
    )
    result.check(
        f"x{top} flow: admission sheds the excess (> 0 sheds)",
        top_flow["metrics_shed"] > 0,
        f"{top_flow['metrics_shed']} sheds of {top_flow['issued']} issued",
    )
    result.sim_clock = total_clock
    result.sim_events = total_events

    notes = []
    if top_flow["trace_path"]:
        notes.append(f"trace: {top_flow['trace_path']}")
    if flags["report"] is not None:
        path = write_report(
            flags["report"],
            "e15-overload",
            seed,
            {"seed": seed, "quick": quick, "levels": report_rows},
        )
        notes.append(f"report: {path}")
    result.notes = "\n".join(notes)
    return result


#: Sweep offered load x1..x10 capacity with and without flow control.
#: ``overload`` overrides the top offered-load multiplier; ``trace``
#: enables the span-level admission audit; ``report`` names a directory
#: for the JSON goodput artifact.
EXPERIMENT = Experiment(("overload", "trace", "report"), units, measure, finish)
