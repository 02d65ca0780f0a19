"""E17 -- the operating-mode governor degrades in bands, not cliffs.

Claim: under compounded stress -- offered load climbing past capacity
while seeded chaos crashes hosts and objects -- a system governed by the
:mod:`repro.health` band machine walks DOWN the health scale one band at
a time (Stable → Strained → Eroding → ... as evidence worsens), keeps
serving at capacity while degraded because each band tightens admission
and retry policy instead of letting queues grow, and then walks BACK up
band-by-band under hysteresis once the storm passes -- with every
transition justified by an evidence snapshot in a hash-chained ledger
that verifies intact.  The same system without flow control or governor
collapses abruptly at the storm: the timeout/retry spiral takes goodput
to a small fraction of capacity, and nothing recorded why.

Method: one serial service (capacity 0.5 requests/ms) takes open-loop
traffic from 4 clients through four phases -- calm (x0.5 capacity),
rising (x3), storm (x``mult``, default 8, plus a seeded FaultPlan of
host/object crashes), recovery (x0.5).  Two arms per seed, identical
except the stack under test: the *governed* arm runs flow control plus
the governor (coupled to admission configs, client retry-token refill,
and the recovery sweeper's cadence); the *baseline* arm runs the
historical ungoverned path.  Both arms keep the settlement identity
(``requests_sent == replies + timeouts + delivery_failures + cancelled +
shed``) and the governed arm's three shed ledgers must agree
(triple-entry: metrics == FaultLog == wire).  Everything runs on
simulated time from seeded state: reports and ledgers are byte-identical
across ``--jobs``.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.errors import LegionError
from repro.core.runtime import RetryPolicy
from repro.experiments.common import (
    ChaosArm,
    Experiment,
    ExperimentResult,
    Flags,
    checkpoint,
    serial_flow,
    settle_governor,
    settlement,
    write_report,
)
from repro.faults.driver import protected_hosts
from repro.faults.plan import FaultKind
from repro.health import GovernorConfig, HealthLedger, enable_governor
from repro.metrics.recorder import SeriesRecorder
from repro.simkernel.futures import gather
from repro.simkernel.kernel import Timeout
from repro.system.legion import LegionSystem, SiteSpec
from repro.trace.audit import TraceAudit
from repro.workloads.apps import CounterImpl, SerialServiceImpl
from repro.workloads.generators import OpenLoopDriver

#: Exclusive service per Work() call; capacity is its reciprocal.
SERVICE_TIME = 2.0
CAPACITY = 1.0 / SERVICE_TIME
N_CLIENTS = 4
TIMEOUT = 60.0
#: Bystander objects the chaos plan may crash (the loss-evidence feed).
N_FODDER = 6

#: The governed arm's flow regime: the governor tightens its bounded
#: queue per band.
FLOW = serial_flow(SERVICE_TIME)

#: Both arms' client policy: patient (rides out crashes) but budgeted --
#: the retry-token bucket is the knob the governor's refill scaling
#: turns, and what keeps retry volume honest in the baseline too.
E17_RETRY_POLICY = RetryPolicy(
    max_attempts=6,
    base_backoff=5.0,
    max_backoff=100.0,
    budget=2_000.0,
    retry_unreachable=True,
    retry_tokens=60.0,
    retry_token_refill=0.5,
)


def _phases(quick: bool, mult: float) -> List[Tuple[str, float, float]]:
    """(name, duration ms, offered-load multiple of capacity) in order."""
    if quick:
        return [
            ("calm", 120.0, 0.5),
            ("rising", 240.0, 3.0),
            ("storm", 240.0, mult),
            ("recovery", 600.0, 0.5),
        ]
    return [
        ("calm", 200.0, 0.5),
        ("rising", 400.0, 3.0),
        ("storm", 400.0, mult),
        ("recovery", 900.0, 0.5),
    ]


def _run_arm(
    seed: int, quick: bool, governed: bool, mult: float
) -> Dict[str, Any]:
    phases = _phases(quick, mult)
    system = LegionSystem.build(
        [SiteSpec("main", hosts=3)], seed=seed, flow=FLOW if governed else None
    )

    # Class objects are infrastructure: pin them to the protected host (as
    # E13 does) so chaos can crash instances but never the recovery
    # control path itself.
    site0 = system.sites[0].name
    protected = system.host_servers[protected_hosts(system)[site0]].loid
    cls = system.create_class(
        "SerialService",
        factory=lambda: SerialServiceImpl(service_time=SERVICE_TIME),
        magistrate=system.magistrates[site0].loid,
        host=protected,
    )
    instance = system.create_instance(cls.loid)
    # Checkpoint the service so a storm-phase host crash is recoverable
    # (reactive rebind + magistrate restore, as in E13).
    checkpoint(system, cls.loid, instance.loid)
    # Chaos fodder: checkpointed counters the plan crashes, feeding the
    # loss-backlog evidence signal without taking the service itself down
    # on every draw.
    fodder_cls = system.create_class(
        "Fodder",
        factory=CounterImpl,
        magistrate=system.magistrates[site0].loid,
        host=protected,
    )
    fodder = [system.create_instance(fodder_cls.loid) for _ in range(N_FODDER)]
    for i, binding in enumerate(fodder):
        system.call(binding.loid, "Increment", i + 1)
        checkpoint(system, fodder_cls.loid, binding.loid)

    clients = [system.new_client(f"e17-{i}") for i in range(N_CLIENTS)]
    # The probe console: periodic Get()s over the fodder keep the
    # reactive recovery path live for objects nobody else calls (an
    # object crashed on a *live* host only comes back when someone asks
    # for it), and in the Failed band its calls are what the pause sheds.
    prober = system.new_client("e17-probe")
    clients.append(prober)
    for client in clients:
        client.runtime.retry_policy = E17_RETRY_POLICY

    # The storm's chaos: drawn up front from the seeded stream, started
    # (relative to then-now) when the storm phase begins.
    storm_start = sum(d for _n, d, _l in phases[:2])
    arm = ChaosArm(
        system, "e17-faults", phases[2][1], 10.0, [str(b.loid) for b in fodder], 120.0,
        {FaultKind.HOST_CRASH: 0.5, FaultKind.OBJECT_CRASH: 0.5},
    )
    # Installed now (not when the storm starts): sheds are logged too.
    system.services.fault_log = arm.log
    arm.sweeper.start()

    governor = None
    if governed:
        # The critical allowlist is the serial service's LOID (an
        # application server's component name defaults to its LOID
        # string), so the Failed band pauses everything *except* the
        # service under test -- the one class that must serve.
        config = GovernorConfig(critical=frozenset({str(instance.loid)}))
        governor = enable_governor(system, config)
        governor.track(*clients)
        governor.attach(sweeper=arm.sweeper)

    start = system.kernel.now
    total = sum(d for _n, d, _l in phases)
    system.kernel.post(storm_start, arm.driver.start)
    traffic = OpenLoopDriver(
        system.kernel,
        clients[:N_CLIENTS],
        lambda _client: (instance.loid, "Work", ()),
        [(duration, N_CLIENTS / (level * CAPACITY)) for _n, duration, level in phases],
        stagger=0.5,
        timeout=TIMEOUT,
    )
    done = traffic.start()

    def probe_loop():
        end = system.kernel.now + total
        while system.kernel.now < end:
            for binding in fodder:
                try:
                    yield from prober.runtime.invoke(
                        binding.loid, "Get", timeout=TIMEOUT
                    )
                except LegionError:
                    pass  # lost or paused; the next round retries
            yield Timeout(97.0)

    probes = system.kernel.spawn(probe_loop(), name="e17-probes")
    system.kernel.run_until_complete(gather([done, probes]), max_events=50_000_000)

    def touch(loid):
        try:
            yield from prober.runtime.invoke(loid, "Get", timeout=TIMEOUT)
        except LegionError:
            pass  # reconciliation below reports it as unrecovered

    def wind_down():
        arm.wind_down()  # drains backlog, late chaos restores, retries
        # Touch every fodder object: a straggler lost on a live host is
        # recovered by this very call (the reactive path), as in E13.  The
        # tracked prober does the touching so any shed stays triple-entry.
        for binding in fodder:
            fut = system.kernel.spawn(touch(binding.loid), name="e17-touch")
            system.kernel.run_until_complete(fut)

    ledger_records: List[Dict[str, Any]] = []
    band_final = "stable"
    audits: List[Any] = []
    if governor is None:
        wind_down()
    else:
        ledger_records = settle_governor(governor, wind_down)
        audits.append(TraceAudit.evidence_reconciles(governor.last_evidence))
        band_final = governor.band.label

    # Phase-windowed goodput (successes per ms, by settle time).
    phase_rows = []
    edge = start
    _issue, ok_done = traffic.log.ok_times()
    for name, duration, level in phases:
        w0, w1 = edge, edge + duration
        ok = int(np.count_nonzero((w0 <= ok_done) & (ok_done < w1)))
        phase_rows.append(
            {
                "phase": name,
                "offered_x": level,
                "goodput": ok / duration,
                "goodput_x": (ok / duration) / CAPACITY,
            }
        )
        edge = w1
    settled = settlement(system, clients, traffic.log, arm.log)
    lost, unrecovered = arm.losses()

    return {
        "phases": phase_rows,
        **settled,
        "chaos_events": len(arm.plan.events),
        "lost": len(lost),
        "unrecovered": len(unrecovered),
        "ledger": ledger_records,
        "band_final": band_final,
        "audits": audits,
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


def _mult(flags: Flags) -> float:
    """The storm's offered-load multiple (``--governor``; default 8)."""
    return float(flags["governor"]) if flags["governor"] else 8.0


def units(quick: bool, flags: Flags) -> list:
    """The two independent arms; each builds its own seeded system."""
    return ["governed", "baseline"]


def measure(unit, quick: bool, seed: int, flags: Flags) -> Dict[str, Any]:
    """Run one arm; the returned dict is picklable."""
    out = _run_arm(seed, quick, governed=unit == "governed", mult=_mult(flags))
    out["arm"] = unit
    return out


def finish(partials, quick: bool, seed: int, flags: Flags) -> ExperimentResult:
    """Merge the two arms, in unit order, into the E17 result."""
    by_arm = {p["arm"]: p for p in partials}
    gov = by_arm["governed"]
    base = by_arm["baseline"]
    mult = _mult(flags)

    recorder = SeriesRecorder(x_label="phase")
    result = ExperimentResult(
        experiment="E17",
        title="operating-mode governor (banded health + policy coupling)",
        claim=(
            "under compounded overload + chaos, the governed system degrades "
            "one band at a time, keeps goodput at capacity while degraded, "
            "recovers band-by-band under hysteresis, and ledgers every "
            "transition tamper-evidently, while the ungoverned baseline "
            "collapses abruptly at the storm"
        ),
        recorder=recorder,
    )
    phase_pairs = list(
        zip(gov["phases"], base["phases"], strict=True)
    )
    for index, (gp, bp) in enumerate(phase_pairs):
        recorder.add(
            index,
            offered_x=gp["offered_x"],
            governed_goodput=round(gp["goodput_x"], 3),
            baseline_goodput=round(bp["goodput_x"], 3),
        )

    # -- band walk ----------------------------------------------------------
    ledger = gov["ledger"]
    visited = [r["to_band"] for r in ledger]
    steps_ok = all(
        abs(
            ["stable", "strained", "eroding", "compromised", "failed"].index(
                r["to_band"]
            )
            - ["stable", "strained", "eroding", "compromised", "failed"].index(
                r["from_band"]
            )
        )
        == 1
        for r in ledger
    )
    result.check(
        "governed: degrades through strained and eroding",
        "strained" in visited and "eroding" in visited,
        f"bands visited: {visited}",
    )
    result.check(
        "governed: never skips a band (every transition one step)",
        steps_ok and len(ledger) > 0,
        f"{len(ledger)} ledgered transitions",
    )
    result.check(
        "governed: recovers to stable after the storm",
        gov["band_final"] == "stable" and visited and visited[-1] == "stable",
        f"final band: {gov['band_final']}",
    )
    recoveries = [r for r in ledger if r["direction"] == "recover"]
    result.check(
        "governed: recovery is monotone band-by-band (hysteresis held)",
        len(recoveries) >= 2
        and all(r["reason"] == "calm" for r in recoveries),
        f"{len(recoveries)} recover transitions",
    )
    chain_error = HealthLedger.verify_records(ledger)
    result.check(
        "governed: transition ledger hash chain verifies intact",
        chain_error is None,
        chain_error or f"{len(ledger)} records chained from genesis",
    )

    # -- goodput ------------------------------------------------------------
    by_phase = {p["phase"]: p for p in gov["phases"]}
    base_by_phase = {p["phase"]: p for p in base["phases"]}
    result.check(
        "governed: storm goodput holds >= 60% of capacity",
        by_phase["storm"]["goodput_x"] >= 0.6,
        f"{by_phase['storm']['goodput_x']:.2f}x capacity at x{mult:g} offered",
    )
    result.check(
        "baseline: storm goodput collapses (<= 50% of capacity)",
        base_by_phase["storm"]["goodput_x"] <= 0.5,
        f"{base_by_phase['storm']['goodput_x']:.2f}x capacity",
    )
    result.check(
        "governed: recovery-phase goodput back at offered load",
        by_phase["recovery"]["goodput_x"]
        >= 0.9 * by_phase["recovery"]["offered_x"],
        f"{by_phase['recovery']['goodput_x']:.2f}x of "
        f"{by_phase['recovery']['offered_x']:g}x offered",
    )

    # -- accounting ---------------------------------------------------------
    for arm, out in (("governed", gov), ("baseline", base)):
        result.check(
            f"{arm}: every request settles (shed included)",
            out["settled"],
            f"outcomes={out['outcomes']}",
        )
        result.check(
            f"{arm}: chaos losses all recovered",
            out["unrecovered"] == 0,
            f"{out['lost']} lost, {out['unrecovered']} unrecovered "
            f"({out['chaos_events']} chaos events)",
        )
    result.check(
        "governed: shed ledgers reconcile (metrics == FaultLog == wire)",
        gov["metrics_shed"] == gov["faultlog_shed"] == gov["wire_shed"],
        f"metrics={gov['metrics_shed']} faultlog={gov['faultlog_shed']} "
        f"wire={gov['wire_shed']}",
    )
    for finding in gov["audits"]:
        result.check(finding.name, finding.passed, finding.detail)

    result.sim_clock = gov["sim_clock"] + base["sim_clock"]
    result.sim_events = gov["sim_events"] + base["sim_events"]

    notes = [
        "bands: "
        + (
            " -> ".join(["stable"] + visited)
            if visited
            else "(no transitions)"
        )
    ]
    report = flags["report"]
    if report is not None:
        path = write_report(
            report,
            "e17-governor",
            seed,
            {
                "seed": seed,
                "quick": quick,
                "mult": mult,
                "governed": gov["phases"],
                "baseline": base["phases"],
                "bands": visited,
                "transitions": len(ledger),
            },
        )
        ledger_path = os.path.join(report, f"e17-ledger-seed{seed}.jsonl")
        HealthLedger.write_records(ledger, ledger_path)
        notes.append(f"report: {path}")
        notes.append(f"ledger: {ledger_path}")
    result.notes = "\n".join(notes)
    return result


#: Governed vs ungoverned under compounded overload + chaos.  ``governor``
#: overrides the storm's offered-load multiplier; ``report`` names a
#: directory for the JSON phase artifact and the JSONL transition ledger.
EXPERIMENT = Experiment(("governor", "report"), units, measure, finish)
