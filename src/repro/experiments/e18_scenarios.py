"""E18 -- the scenario catalog swept across the subsystem matrix.

Claim: one declarative scenario spec drives every subsystem.  Each
catalog scenario (diurnal-regional, flash-crowd, multi-tenant,
scientific-batch, repository) compiles once into a backend-neutral event
stream and then replays unchanged through the plain rich-object runtime,
under scheduled chaos with checkpoint/restart (``--faults``), under an
operating-mode governor with flow control at an offered-load multiple
(``--governor``), and through the columnar mega-scale backend at 10^6
callers (``--mega``); ``--overload``, ``--autoscale``, and ``--replicas``
add their arms on request.  Every (scenario, arm) cell is one
independent work unit, so the sweep shards across worker processes and
merges byte-identically.

Method: for each cell, compile the scenario's event stream from the
seed, deploy it (one jurisdiction per scenario site, one application
object per (class, site, slot), one console per (tenant, site), a MayI
ACL over Privileged()), arm the subsystem under test, replay, then
reduce to a picklable partial carrying outcome counts, session
conservation, per-phase goodput/latency, and the arm's own evidence
(fault reconciliation, governor ledger, mega settlement).  The merge
renders the scenario x subsystem matrix and checks the per-scenario
shapes: the multi-tenant contention phase must show MayI denials, the
flash surge must dwarf the calm rate, the diurnal peaks must land at
different ticks per site, the repository must stay reader-heavy.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Tuple

from repro.experiments.common import (
    ChaosArm,
    Experiment,
    ExperimentResult,
    Flags,
    checkpoint,
    drain_clones,
    serial_flow,
    settle_governor,
    write_report,
)
from repro.experiments.e13_availability import CHAOS_RETRY_POLICY
from repro.health import GovernorConfig, HealthLedger, enable_governor
from repro.metrics.recorder import SeriesRecorder
from repro.scenarios import (
    ReplicaRouting,
    ScenarioDriver,
    compile_events,
    deploy,
    get_scenario,
    per_tick_arrivals,
    scenario_names,
    stream_stats,
)
from repro.scenarios.spec import ScenarioSpec

#: Per-call deadline under chaos (rides out a crash + recovery).
CHAOS_TIMEOUT = 600.0
#: The checkpointed sentinel key every instance must answer after chaos.
SENTINEL_KEY = 7

#: Default arm parameters (overridden by the runner flags).
DEFAULT_FAULTS = 1.0
DEFAULT_GOVERNOR_MULT = 3.0
DEFAULT_MEGA = 1_000_000
#: The autoscale arm's per-member high-water rate (requests per
#: simulated ms); ``--autoscale`` scales the offered load instead.
AUTOSCALE_HIGH_WATER = 0.7

MAX_EVENTS = 50_000_000


def _sized(spec: ScenarioSpec, quick: bool) -> ScenarioSpec:
    """Catalog durations are the --quick sizes; --full doubles them."""
    if quick:
        return spec
    phases = tuple(replace(p, duration=p.duration * 2.0) for p in spec.phases)
    return replace(spec, phases=phases)


def _phase_outcomes(driver: ScenarioDriver) -> Dict[str, Dict[str, int]]:
    """Per-phase outcome counts (by issue time, like phase_goodput)."""
    out: Dict[str, Dict[str, int]] = {}
    for rec in driver.records:
        bucket = out.setdefault(
            rec.phase, {"ok": 0, "shed": 0, "denied": 0, "failed": 0, "pending": 0}
        )
        bucket[rec.outcome] += 1
    return out


def _shape_stats(spec: ScenarioSpec, plan) -> dict:
    """The compiled stream's scenario-defining shape, for the checks."""
    per_tick = per_tick_arrivals(plan)
    shape: dict = {"per_tick": per_tick}
    # Flash surge ratio: mean arrivals/tick inside vs outside the window.
    t0 = 0.0
    for phase in spec.phases:
        if phase.arrival.kind == "flash":
            lo = t0 + phase.arrival.surge_at
            hi = lo + phase.arrival.surge_duration
            inside, outside = [], []
            for i, n in enumerate(per_tick):
                t = i * spec.tick_ms
                (inside if lo <= t < hi else outside).append(n)
            mean_in = sum(inside) / len(inside) if inside else 0.0
            mean_out = sum(outside) / len(outside) if outside else 0.0
            shape["surge_ratio"] = mean_in / mean_out if mean_out else 0.0
        t0 += phase.duration
    # Diurnal site peaks: the tick index where each site's arrivals peak.
    if any(p.arrival.kind == "diurnal" for p in spec.phases):
        by_site = [[0] * len(plan) for _ in range(spec.sites)]
        for i, tick in enumerate(plan):
            for a in tick.arrivals:
                by_site[a.site][i] += 1
        shape["site_peaks"] = [
            row.index(max(row)) if any(row) else -1 for row in by_site
        ]
    return shape


def _drain(driver: ScenarioDriver, stats_fut):
    system = driver.deployment.system
    system.kernel.run_until_complete(stats_fut, max_events=MAX_EVENTS)
    system.kernel.run()


def _base_partial(driver: ScenarioDriver) -> dict:
    """The fields every rich arm reports."""
    system = driver.deployment.system
    runtimes = system.runtimes([system.console] + driver.deployment.all_clients())
    return {
        "outcomes": driver.outcome_counts(),
        "sessions": {
            "started": driver.sessions.started,
            "completed": driver.sessions.completed,
            "abandoned": driver.sessions.abandoned,
            "active": driver.sessions.active,
        },
        "phases": driver.phase_goodput(),
        "phase_outcomes": _phase_outcomes(driver),
        "settled": all(rt.settled for rt in runtimes),
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


# ------------------------------------------------------------------- arms


def _measure_plain(spec: ScenarioSpec, seed: int, _param: float) -> dict:
    plan = compile_events(spec, seed)
    dep = deploy(spec, seed)
    driver = ScenarioDriver(dep, plan)
    _drain(driver, driver.start())
    partial = _base_partial(driver)
    partial["expected_denied"] = stream_stats(plan)["denied"]
    partial["shape"] = _shape_stats(spec, plan)
    partial["kinds"] = _kind_counts(driver)
    return partial


def _kind_counts(driver: ScenarioDriver) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for rec in driver.records:
        counts[rec.kind] = counts.get(rec.kind, 0) + 1
    return counts


def _measure_faults(spec: ScenarioSpec, seed: int, intensity: float) -> dict:
    plan = compile_events(spec, seed)
    # Classes pinned to site 0's first host: chaos spares the protected
    # hosts, so the metadata spine survives (the E13 recipe).
    dep = deploy(spec, seed, pin_classes=True)
    system = dep.system
    # Seed a sentinel write into every instance and checkpoint it, so a
    # crash can only cost repair traffic, never the state.
    instance_loids = [
        loid for key in sorted(dep.instances) for loid in dep.instances[key]
    ]
    for k, cls in enumerate(dep.classes):
        for si in range(spec.sites):
            for loid in dep.instances[(k, si)]:
                system.call(loid, "Write", SENTINEL_KEY)
                checkpoint(system, cls.loid, loid)
    for client in dep.all_clients():
        client.runtime.retry_policy = CHAOS_RETRY_POLICY

    arm = ChaosArm(
        system, f"e18-faults-{spec.name}", spec.duration, intensity,
        [str(loid) for loid in instance_loids], 100.0, None,
    )
    driver = ScenarioDriver(
        dep, plan, use_deadlines=False, timeout=CHAOS_TIMEOUT
    )
    arm.driver.start()
    arm.sweeper.start()
    stats_fut = driver.start()
    system.kernel.run_until_complete(stats_fut, max_events=MAX_EVENTS)
    arm.wind_down()
    # Every instance must still answer with the checkpointed sentinel; a
    # straggler lost on a live host is recovered by this very call.
    state_intact = all(
        system.call(loid, "Read", SENTINEL_KEY) >= 1 for loid in instance_loids
    )
    partial = _base_partial(driver)
    lost, unrecovered = arm.losses()
    partial.update(
        {
            "faults": arm.log.summary(),
            "lost": len(lost),
            "unrecovered": unrecovered,
            "state_intact": state_intact,
        }
    )
    return partial


def _measure_governor(spec: ScenarioSpec, seed: int, mult: float) -> dict:
    # The same spec at ``mult`` x its offered load, behind E15's flow
    # admission, with the operating-mode governor watching the consoles.
    plan = compile_events(spec, seed, rate_scale=mult)
    dep = deploy(spec, seed, flow=serial_flow(spec.service_time))
    system = dep.system
    critical = frozenset(
        str(loid) for key in sorted(dep.instances) for loid in dep.instances[key]
    )
    governor = enable_governor(system, GovernorConfig(critical=critical))
    governor.track(*dep.all_clients())
    driver = ScenarioDriver(dep, plan, use_deadlines=False)
    stats_fut = driver.start()
    system.kernel.run_until_complete(stats_fut, max_events=MAX_EVENTS)
    records = settle_governor(governor, system.kernel.run)
    partial = _base_partial(driver)
    partial.update(
        {
            "ledger_ok": HealthLedger.verify_records(records) is None,
            "ledger_records": len(records),
            "band_final": governor.band.label,
            "bands_seen": sorted({r["to_band"] for r in records}),
        }
    )
    return partial


def _measure_overload(spec: ScenarioSpec, seed: int, mult: float) -> dict:
    """Flow admission alone (no governor) at ``mult`` x offered load."""
    plan = compile_events(spec, seed, rate_scale=mult)
    dep = deploy(spec, seed, flow=serial_flow(spec.service_time))
    driver = ScenarioDriver(dep, plan, use_deadlines=False)
    _drain(driver, driver.start())
    return _base_partial(driver)


def _measure_autoscale(spec: ScenarioSpec, seed: int, mult: float) -> dict:
    """Class 0 under a CloneController at ``mult`` x offered load; its
    sessions ride the clone pool."""
    from repro.autoscale import (
        AutoscaleConfig,
        CloneController,
        ClonePoolRouter,
        build_placement_agent,
    )

    plan = compile_events(spec, seed, rate_scale=mult)
    dep = deploy(spec, seed)
    system = dep.system
    hot = dep.classes[0]
    controller = CloneController(
        system,
        hot,
        AutoscaleConfig(
            high_water=AUTOSCALE_HIGH_WATER,
            low_water=AUTOSCALE_HIGH_WATER / 6.0,
            cooldown=40.0,
            max_clones=6,
        ),
        build_placement_agent(system),
    )
    controller.start()
    routers = {
        id(client): ClonePoolRouter(client, hot)
        for client in dep.all_clients()
    }
    for router in routers.values():
        router.start()

    def invoke_via(driver, client, a, req, timeout):
        if a.klass == 0:  # the hot class: ride the clone pool
            target = routers[id(client)].choose()
            yield from client.runtime.invoke(
                target, "CloneEpoch", timeout=timeout
            )
        else:
            yield from ScenarioDriver._default_invoke(
                driver, client, a, req, timeout
            )

    driver = ScenarioDriver(dep, plan, invoke_via=invoke_via, timeout=400.0)
    stats_fut = driver.start()
    system.kernel.run_until_complete(stats_fut, max_events=MAX_EVENTS)
    drained = drain_clones(system, hot.loid)
    controller.stop()
    for router in routers.values():
        router.stop()
    system.kernel.run()
    peak = live = 0
    for _when, what, _loid in controller.actions:
        live += 1 if what == "spawn" else -1
        peak = max(peak, live)
    partial = _base_partial(driver)
    partial.update(
        {
            "peak_clones": peak,
            "actions": len(controller.actions),
            "drained_to_min": drained,
        }
    )
    return partial


def _measure_replicas(spec: ScenarioSpec, seed: int, replicas: int) -> dict:
    """Reads/writes ride per-class replica groups under the spec policy."""
    from repro.replication import ReplicaSession, enable_replication
    from repro.replication.store import ReplicatedStoreImpl

    plan = compile_events(spec, seed)
    dep = deploy(spec, seed)
    system = dep.system
    enable_replication(system)
    members = min(int(replicas), spec.sites)
    bindings = []
    for k in range(spec.n_classes):
        cls = system.create_class(
            f"ScenarioStore{k}",
            factory=lambda: ReplicatedStoreImpl(service_time=spec.read_time),
        )
        binding = system.call(cls.loid, "CreateReplicated", members, "first", 1)
        session = ReplicaSession(system.console.runtime, binding, spec.consistency)

        def prime(session=session):
            # ``seed()`` freezes the group (read-any immutability); for
            # mutable policies the keys go in through ordinary writes.
            if spec.consistency == "read-any":
                yield from session.seed((f"k{i}", 0) for i in range(16))
            else:
                for i in range(16):
                    yield from session.write(f"k{i}", 0)

        system.kernel.run_until_complete(
            system.spawn(prime(), name=f"e18-seed-{k}")
        )
        bindings.append(binding)
    routing = ReplicaRouting(bindings=bindings, consistency=spec.consistency)
    driver = ScenarioDriver(dep, plan, invoke_via=routing.invoke_via)
    _drain(driver, driver.start())
    partial = _base_partial(driver)
    partial["replica_members"] = members
    return partial


def _measure_mega(spec: ScenarioSpec, seed: int, population: int) -> dict:
    """The whole scenario through the columnar backend at ``population``."""
    from repro.scenarios.mega import frame_arrivals, run_scenario_mega

    plan = compile_events(spec, seed)
    report = run_scenario_mega(spec, plan, population=int(population))
    frames_agree = frame_arrivals(spec, plan) == per_tick_arrivals(plan)
    return {
        "population": report["population"],
        "scale": report["scale"],
        "issued": report["issued"],
        "denied": report["denied"],
        "shed": report["shed"],
        "served": report["served"],
        "settled": report["settled"],
        "ticks": report["ticks"],
        "drain_ticks": report["drain_ticks"],
        "peak_target_backlog_ms": report["peak_target_backlog_ms"],
        "checksum": report["checksum"],
        "frames_agree": frames_agree,
        # Deterministic stand-ins for the kernel fingerprints.
        "sim_clock": (report["ticks"] + report["drain_ticks"]) * spec.tick_ms,
        "sim_events": report["issued"],
    }


_MEASURES = {
    "plain": _measure_plain,
    "faults": _measure_faults,
    "governor": _measure_governor,
    "overload": _measure_overload,
    "autoscale": _measure_autoscale,
    "replicas": _measure_replicas,
    "mega": _measure_mega,
}


# ------------------------------------------------------------- the record


def _arms(flags: Flags) -> List[Tuple[str, float]]:
    """The (arm, parameter) columns of the matrix, flags applied."""

    def param(keyword: str, default: float) -> float:
        return float(flags[keyword]) if flags[keyword] is not None else default

    arms = [
        ("plain", 0.0),
        ("faults", param("faults", DEFAULT_FAULTS)),
        ("governor", param("governor", DEFAULT_GOVERNOR_MULT)),
        ("mega", param("mega", float(DEFAULT_MEGA))),
    ]
    for optional in ("overload", "autoscale", "replicas"):
        if flags[optional] is not None:
            arms.insert(3, (optional, float(flags[optional])))
    return arms


def units(quick: bool, flags: Flags) -> list:
    """One unit per (scenario, arm) cell of the matrix.

    Every cell builds its own system from the seed, so cells may run in
    separate worker processes (``--jobs N``) in any order; the merge in
    :func:`finish` consumes partials in this declaration order, so the
    report is byte-identical however the cells were scheduled.
    """
    arms = _arms(flags)
    return [
        (name, arm, param)
        for name in scenario_names()
        for arm, param in arms
    ]


def measure(unit, quick: bool, seed: int, flags: Flags) -> dict:
    """Run one (scenario, arm) cell; reduce to a picklable partial."""
    name, arm, param = unit
    spec = _sized(get_scenario(name), quick)
    partial = _MEASURES[arm](spec, seed, param)
    partial.update({"scenario": name, "arm": arm, "param": param})
    return partial


def _matrix_row(by_arm: Dict[str, dict]) -> Dict[str, float]:
    """One scenario's recorder row: the same columns for every row."""
    row: Dict[str, float] = {}
    for arm in by_arm:
        p = by_arm[arm]
        if arm == "mega":
            row["mega_served"] = p["served"]
            row["mega_shed"] = p["shed"]
            continue
        out = p["outcomes"]
        row[f"{arm}_ok"] = out["ok"]
        if arm == "plain":
            row["plain_denied"] = out["denied"]
            goodx = max((ph["goodput_x"] for ph in p["phases"]), default=0.0)
            p99 = max((ph["p99"] for ph in p["phases"]), default=0.0)
            row["plain_goodx"] = goodx
            row["plain_p99"] = p99
        elif arm == "faults":
            row["faults_failed"] = out["failed"]
        elif arm in ("governor", "overload"):
            row[f"{arm}_shed"] = out["shed"]
        elif arm == "autoscale":
            row["auto_peak"] = p["peak_clones"]
        elif arm == "replicas":
            row["repl_failed"] = out["failed"]
    return row


def finish(partials, quick: bool, seed: int, flags: Flags) -> ExperimentResult:
    """Merge cell partials into the E18 result, in unit order."""
    arms = [a for a, _p in _arms(flags)]
    names = scenario_names()
    cells: Dict[str, Dict[str, dict]] = {n: {} for n in names}
    for p in partials:
        cells[p["scenario"]][p["arm"]] = p

    recorder = SeriesRecorder(x_label="scenario")
    for i, name in enumerate(names):
        by_arm = {arm: cells[name][arm] for arm in arms}
        recorder.add(i, **_matrix_row(by_arm))

    result = ExperimentResult(
        experiment="E18",
        title="scenario catalog x subsystem matrix (declarative workloads)",
        claim=(
            "one declarative scenario spec compiles into both the "
            "rich-object runtime and the columnar mega-scale backend, and "
            "replays unchanged under chaos, flow-governed overload, and "
            "10^6-caller populations"
        ),
        recorder=recorder,
    )

    rich_arms = [a for a in arms if a != "mega"]
    result.check(
        "every rich (scenario, arm) cell settles its request ledger",
        all(cells[n][a]["settled"] for n in names for a in rich_arms),
        f"{len(names) * len(rich_arms)} cells",
    )
    conserved = all(
        cells[n][a]["sessions"]["active"] == 0
        and cells[n][a]["sessions"]["started"]
        == cells[n][a]["sessions"]["completed"]
        + cells[n][a]["sessions"]["abandoned"]
        for n in names
        for a in rich_arms
    )
    result.check(
        "session conservation: started == completed + abandoned, none stuck",
        conserved,
    )
    plain_clean = all(
        cells[n]["plain"]["outcomes"]["failed"] == 0
        and cells[n]["plain"]["outcomes"]["shed"] == 0
        for n in names
    )
    result.check(
        "plain arm: no failed and no shed calls in any scenario",
        plain_clean,
    )
    denial_match = all(
        cells[n]["plain"]["outcomes"]["denied"]
        == cells[n]["plain"]["expected_denied"]
        for n in names
    )
    result.check(
        "MayI denials match the compiled expectation in every scenario",
        denial_match,
    )

    mt = cells["multi-tenant"]["plain"]
    contention = mt["phase_outcomes"].get("contention", {})
    result.check(
        "multi-tenant: MayI denies unprivileged Privileged() probes "
        "under contention",
        contention.get("denied", 0) > 0 and contention.get("ok", 0) > 0,
        f"contention denied={contention.get('denied', 0)} "
        f"ok={contention.get('ok', 0)}",
    )
    surge = cells["flash-crowd"]["plain"]["shape"].get("surge_ratio", 0.0)
    result.check(
        "flash-crowd: surge-window arrival rate >= 3x the calm rate",
        surge >= 3.0,
        f"surge/calm = {surge:.2f}",
    )
    peaks = cells["diurnal-regional"]["plain"]["shape"].get("site_peaks", [])
    result.check(
        "diurnal-regional: per-site load peaks land at different ticks",
        len(peaks) == len(set(peaks)) and len(peaks) >= 2,
        f"peak ticks {peaks}",
    )
    kinds = cells["repository"]["plain"]["kinds"]
    reads, writes = kinds.get("read", 0), kinds.get("write", 0)
    result.check(
        "repository: reader-heavy (reads >= 10x writes)",
        writes >= 0 and reads >= 10 * max(writes, 1),
        f"reads={reads} writes={writes}",
    )

    if "faults" in arms:
        fa = [cells[n]["faults"] for n in names]
        result.check(
            "faults arm: chaos costs repair traffic, never wrong answers "
            "(no failed calls, checkpointed state intact, all losses "
            "recovered)",
            all(
                p["outcomes"]["failed"] == 0
                and p["state_intact"]
                and not p["unrecovered"]
                for p in fa
            ),
            f"lost={sum(p['lost'] for p in fa)} across {len(fa)} scenarios",
        )
    if "governor" in arms:
        ga = [cells[n]["governor"] for n in names]
        result.check(
            "governor arm: hash-chained ledger verifies and goodput "
            "survives the overload in every scenario",
            all(p["ledger_ok"] and p["outcomes"]["ok"] > 0 for p in ga),
            f"bands seen: {sorted(set(b for p in ga for b in p['bands_seen']))}",
        )
    if "overload" in arms:
        oa = [cells[n]["overload"] for n in names]
        result.check(
            "overload arm: flow admission sheds the excess explicitly",
            all(p["outcomes"]["ok"] > 0 for p in oa)
            and any(p["outcomes"]["shed"] > 0 for p in oa),
        )
    if "autoscale" in arms:
        aa = [cells[n]["autoscale"] for n in names]
        result.check(
            "autoscale arm: the clone pool grows under load and drains "
            "back to zero after it",
            all(p["drained_to_min"] for p in aa)
            and any(p["peak_clones"] > 0 for p in aa),
            f"peaks {[p['peak_clones'] for p in aa]}",
        )
    if "replicas" in arms:
        ra = [cells[n]["replicas"] for n in names]
        result.check(
            "replicas arm: every scenario's reads/writes ride the "
            "replica groups without failures",
            all(
                p["outcomes"]["failed"] == 0 and p["outcomes"]["ok"] > 0
                for p in ra
            ),
        )
    ma = [cells[n]["mega"] for n in names]
    result.check(
        "mega arm: every scenario settles issued == denied + shed + "
        "served at >= 10^6 callers",
        all(p["settled"] and p["population"] >= p["param"] for p in ma),
        f"populations {[p['population'] for p in ma]}",
    )
    result.check(
        "rich-vs-mega agreement: identical per-frame session arrivals",
        all(p["frames_agree"] for p in ma),
    )

    notes = ["scenario index: " + ", ".join(f"{i}={n}" for i, n in enumerate(names))]
    for name in names:
        g = cells[name].get("governor")
        if g:
            notes.append(
                f"{name}: governor bands {g['bands_seen']} -> "
                f"{g['band_final']} ({g['ledger_records']} ledger records)"
            )
    result.notes = "\n".join(notes)

    result.sim_clock = sum(
        cells[n][a]["sim_clock"] for n in names for a in arms
    )
    result.sim_events = sum(
        cells[n][a]["sim_events"] for n in names for a in arms
    )

    if flags["report"] is not None:
        payload = {
            "experiment": "E18",
            "seed": seed,
            "quick": quick,
            "arms": arms,
            "scenarios": {
                name: {
                    arm: {
                        k: v
                        for k, v in cells[name][arm].items()
                        if k not in ("shape",)
                    }
                    for arm in arms
                }
                for name in names
            },
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in result.checks
            ],
        }
        path = write_report(flags["report"], "e18-scenarios", seed, payload)
        result.notes += f"\nreport: {path}"
    return result


#: ``faults``, ``governor`` and ``mega`` set the parameter of their
#: (always present) arms; ``overload``, ``autoscale`` and ``replicas``
#: each add an arm; ``report`` names a directory for the JSON matrix.
EXPERIMENT = Experiment(
    ("faults", "governor", "overload", "autoscale", "replicas", "mega", "report"),
    units,
    measure,
    finish,
)
