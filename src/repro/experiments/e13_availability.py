"""E13 -- availability under scheduled chaos (sections 3.1, 4.1.4).

Claim: failures cost repair traffic, never wrong answers.  With the
self-healing stack in place -- patient retry/rebind in the runtime,
checkpointing magistrates, RecoverObject on the stale-binding path, and
periodic recovery sweeps -- every call succeeds at every fault intensity
for which a recovery path exists (here: each site's first host, carrying
the site infrastructure, stays up), and every lost object comes back with
its checkpointed state intact.

Method: build a 2-site testbed, create counters with distinct state,
checkpoint them, then run read traffic while a seeded ChaosDriver crashes
hosts and objects, degrades links, and partitions sites.  Sweep the fault
intensity; report call success rate, time-to-recover distributions, and
the repair-traffic overhead versus the fault-free control.  Runs are
bit-identical per seed.
"""

from __future__ import annotations

from repro.core.runtime import RetryPolicy
from repro.experiments.common import (
    ChaosArm,
    Experiment,
    ExperimentResult,
    Flags,
    checkpoint,
    uniform_sites,
    write_report,
)
from repro.faults.driver import protected_hosts
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import TrafficDriver

#: The patient policy chaos clients run: wide attempt budget, exponential
#: backoff with seeded jitter, and both transient-failure modes retried --
#: partitions (wait out the heal) and resolution failures (recovery may
#: still be in flight).
CHAOS_RETRY_POLICY = RetryPolicy(
    max_attempts=12,
    base_backoff=10.0,
    max_backoff=300.0,
    jitter=0.5,
    budget=10_000.0,
    retry_unreachable=True,
)


def _run_level(intensity: float, seed: int, quick: bool):
    n_objects = 8 if quick else 12
    calls_per_client = 30 if quick else 80
    horizon = 1_500.0 if quick else 4_000.0
    system = LegionSystem.build(uniform_sites(2, hosts_per_site=3), seed=seed)
    # The class object is infrastructure: pin it to a protected host (it
    # stays up, like the magistrates and agents the class needs).
    site0 = system.sites[0].name
    cls = system.create_class(
        "Counter",
        factory=CounterImpl,
        magistrate=system.magistrates[site0].loid,
        host=system.host_servers[protected_hosts(system)[site0]].loid,
    )
    objects = [system.create_instance(cls.loid) for _ in range(n_objects)]
    loids = [b.loid for b in objects]

    # Distinct state per object, checkpointed so a crash cannot lose it.
    for i, binding in enumerate(objects):
        system.call(binding.loid, "Increment", i + 1)
    for binding in objects:
        checkpoint(system, cls.loid, binding.loid)

    clients = [
        system.new_client(f"e13-{i}", site=system.sites[i % len(system.sites)].name)
        for i in range(4)
    ]
    for client in clients:
        client.runtime.retry_policy = CHAOS_RETRY_POLICY
    rng = system.services.rng.stream("e13")

    system.reset_measurements()
    arm = ChaosArm(
        system, "e13-faults", horizon, intensity, [str(loid) for loid in loids], 100.0, None
    )
    traffic = TrafficDriver(
        system.kernel,
        clients,
        choose_call=lambda _client: (loids[rng.randrange(len(loids))], "Get", ()),
        calls_per_client=calls_per_client,
        think_time=10.0,
        timeout=250.0,
    )
    arm.driver.start()
    arm.sweeper.start()
    stats_fut = traffic.start()
    stats = system.kernel.run_until_complete(stats_fut, max_events=20_000_000)
    repair_messages = arm.wind_down()

    # Verification: every object answers with its checkpointed state.  A
    # still-lost object is recovered by this very call (the reactive path),
    # so reconciliation below sees it too.
    state_intact = True
    for i, binding in enumerate(objects):
        value = system.call(binding.loid, "Get")
        if value != i + 1:
            state_intact = False
    return {
        "system": system,
        "stats": stats,
        "arm": arm,
        "state_intact": state_intact,
        "repair_messages": repair_messages,
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


def units(quick: bool, flags: Flags) -> list:
    """The independent work units of one E13 sweep (one per intensity).

    Every level builds its own system, chaos plan, and fault log from
    the seed, so levels may run in separate worker processes
    (``--jobs N``) in any order; only the *merge* -- the repair-traffic
    overhead against the level-0 control -- is cross-level, and that
    happens in :func:`finish`.
    """
    if flags["faults"] is not None:
        return [0.0, float(flags["faults"])]
    return [0.0, 1.0, 3.0] if quick else [0.0, 0.5, 1.0, 2.0, 4.0]


def measure(intensity: float, quick: bool, seed: int, flags: Flags) -> dict:
    """Run one intensity; reduce the live system to a picklable partial."""
    out = _run_level(intensity, seed, quick)
    arm = out["arm"]
    lost, unrecovered = arm.losses()
    return {
        "intensity": intensity,
        "stats": out["stats"],
        "summary": arm.log.summary(),
        "lost": lost,
        "unrecovered": unrecovered,
        "fault_log_json": arm.log.to_json(),
        "state_intact": out["state_intact"],
        "repair_messages": out["repair_messages"],
        "sim_clock": out["sim_clock"],
        "sim_events": out["sim_events"],
    }


def finish(partials, quick: bool, seed: int, flags: Flags) -> ExperimentResult:
    """Merge level partials into the E13 result, in level order.

    Partials are consumed in :func:`units` order regardless of
    worker completion order, so recorder rows, checks, the overhead
    denominator (level 0's message count), and the report artifact are
    byte-identical to the sequential run.
    """
    by_level = {p["intensity"]: p for p in partials}
    recorder = SeriesRecorder(x_label="fault_intensity")
    result = ExperimentResult(
        experiment="E13",
        title="availability under scheduled chaos (self-healing runtime)",
        claim=(
            "with retry/rebind and class-manager recovery, scheduled host "
            "and object crashes cost repair traffic but no failed calls "
            "and no lost state"
        ),
        recorder=recorder,
    )
    levels = units(quick, flags)
    baseline_messages = None
    total_clock = 0.0
    total_events = 0
    report_rows = []
    saw_chaos = False
    for intensity in levels:
        out = by_level[intensity]
        stats = out["stats"]
        summary = out["summary"]
        total_clock += out["sim_clock"]
        total_events += out["sim_events"]
        if intensity == 0.0 and baseline_messages is None:
            baseline_messages = out["repair_messages"]
        overhead = (
            out["repair_messages"] / baseline_messages
            if baseline_messages
            else 0.0
        )
        recorder.add(
            intensity,
            injected=summary["injected"],
            lost=summary["objects_lost"],
            recovered=summary["objects_recovered"],
            success_rate=stats.success_rate,
            recovery_ms_mean=round(summary["recovery_time_mean"], 3),
            recovery_ms_max=round(summary["recovery_time_max"], 3),
            repair_overhead=round(overhead, 3),
        )
        result.check(
            f"intensity={intensity:g}: all calls succeeded",
            stats.success_rate == 1.0,
            f"{stats.calls_succeeded}/{stats.calls_issued}"
            + (f"; first error: {stats.errors[0]}" if stats.errors else ""),
        )
        result.check(
            f"intensity={intensity:g}: state preserved through recovery",
            out["state_intact"],
        )
        lost, unrecovered = out["lost"], out["unrecovered"]
        result.check(
            f"intensity={intensity:g}: every lost object was recovered",
            not unrecovered,
            f"lost={len(lost)} recovered={len(lost) - len(unrecovered)}",
        )
        if intensity > 0.0 and summary["injected"] > 0:
            saw_chaos = True
        report_rows.append(
            {
                "intensity": intensity,
                "calls_issued": stats.calls_issued,
                "calls_succeeded": stats.calls_succeeded,
                "success_rate": stats.success_rate,
                "repair_overhead": round(overhead, 6),
                "fault_log": out["fault_log_json"],
            }
        )
    result.check(
        "chaos plan injected faults at non-zero intensity (mechanism exercised)",
        saw_chaos,
    )
    result.sim_clock = total_clock
    result.sim_events = total_events
    if flags["report"] is not None:
        path = write_report(
            flags["report"],
            "e13-availability",
            seed,
            {"seed": seed, "quick": quick, "levels": report_rows},
        )
        result.notes = f"report: {path}"
    return result


#: Sweep fault intensity; verify availability stays at 100%.  ``faults``
#: replaces the sweep with [0, faults]: a control level plus one chosen
#: intensity.  ``report`` names a directory for the JSON
#: availability/FaultLog artifact.
EXPERIMENT = Experiment(("faults", "report"), units, measure, finish)
