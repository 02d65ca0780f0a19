"""E14 -- load-adaptive class cloning bounds the hot-class load (5.2.2).

Claim: the paper's clones "arbitrarily reduce the load" on a hot class,
but leaves *when* to clone to the administrator.  With the loop closed --
LoadMonitor rates feeding a CloneController that spawns clones through
the scheduling agent above a high-water mark and drains/retires them
below a low-water mark -- the maximum per-class-object request count
stays bounded (log-log slope ~ 0) as the offered load grows 8x, while a
static one-clone baseline saturates linearly.

Method: per load level L in {1, 2, 4, 8}, build a fresh 2-site testbed
with one hot class, and drive open-loop traffic (rate proportional to L,
independent of service latency) from clone-aware clients that route over
GetClonePool() round-robin: mostly cheap class-method calls plus a
Create() every CREATE_EVERY-th call, so both instantiation and method
traffic spread.  The autoscaled arm runs a CloneController (placement
through LeastLoadedPlacementAgent); the static arm keeps one hand-placed
clone.  Each level warms up until the controller converges, resets the
counters, and measures a fixed window; at the top level the autoscaled
arm also demonstrates scale-down (the pool drains back to min_clones
after the traffic stops).  Everything runs on simulated time from seeded
state: byte-identical across --jobs 1 and --jobs N.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.autoscale import (
    AutoscaleConfig,
    CloneController,
    ClonePoolRouter,
    build_placement_agent,
)
from repro.experiments.common import ExperimentResult, drain_clones, write_report
from repro.metrics.counters import ComponentKind
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import OpenLoopDriver

#: Offered load per level: N_CLIENTS clients each firing one call every
#: BASE_INTERVAL / level simulated ms.
N_CLIENTS = 3
BASE_INTERVAL = 5.0
#: Every CREATE_EVERY-th call is a Create() on the chosen pool member
#: (instantiation traffic); the rest are CloneEpoch() (method traffic).
CREATE_EVERY = 16
#: Process slots per host: the sweep creates hundreds of instances at the
#: top level, and a full host would turn a load experiment into a
#: capacity one.
MAX_PROCESSES = 1_024
#: Controller thresholds (requests per simulated ms per pool member).
HIGH_WATER = 0.7
LOW_WATER = 0.12
COOLDOWN = 30.0
MAX_CLONES = 8
#: Per-level spawn budget: each clone spawn costs a placement probe plus
#: a Derive (~0.5 simulated s); warm up long enough for the controller to
#: converge before the measured window opens.
WARMUP_BASE = 400.0
WARMUP_PER_CLONE = 550.0


def _expected_members(level: int) -> int:
    total_rate = N_CLIENTS * level / BASE_INTERVAL
    return min(MAX_CLONES + 1, max(1, math.ceil(total_rate / HIGH_WATER)))


def _run_level(level: int, seed: int, quick: bool, autoscaled: bool):
    measure = 500.0 if quick else 1_200.0
    system = LegionSystem.build(
        [
            SiteSpec("east", hosts=3, max_processes=MAX_PROCESSES),
            SiteSpec("west", hosts=3, max_processes=MAX_PROCESSES),
        ],
        seed=seed,
    )
    hot = system.create_class("HotClass", factory=CounterImpl)

    controller = None
    if autoscaled:
        placement = build_placement_agent(system)
        controller = CloneController(
            system,
            hot,
            AutoscaleConfig(
                high_water=HIGH_WATER,
                low_water=LOW_WATER,
                cooldown=COOLDOWN,
                max_clones=MAX_CLONES,
            ),
            placement,
        )
        controller.start()
    else:
        system.call(hot.loid, "Clone")  # the hand-placed static baseline

    clients = [
        system.new_client(f"e14-{i}", site=system.sites[i % len(system.sites)].name)
        for i in range(N_CLIENTS)
    ]
    routers = [ClonePoolRouter(client, hot) for client in clients]
    by_client = {id(c): r for c, r in zip(clients, routers, strict=True)}
    for router in routers:
        router.start()

    calls = {"n": 0}

    def choose_call(client):
        calls["n"] += 1
        target = by_client[id(client)].choose()
        if calls["n"] % CREATE_EVERY == 0:
            return (target, "Create", ({"no_delegate": True},))
        return (target, "CloneEpoch", ())

    interval = BASE_INTERVAL / level
    warmup = WARMUP_BASE + (
        WARMUP_PER_CLONE * (_expected_members(level) - 1) if autoscaled else 0.0
    )
    # One continuous open-loop driver across warm-up and measurement: a
    # driver handoff would leave an offered-load trough while the old
    # backlog drains, and the controller would (correctly!) scale down
    # right inside the measured window.  Counters reset mid-flight at the
    # phase boundary instead; the LoadMonitor re-baselines on the reset.
    driver = OpenLoopDriver(
        system.kernel, clients, choose_call, [(warmup + measure, interval)], timeout=400.0
    )
    stats_fut = driver.start()
    phase_start = system.kernel.now
    system.kernel.run(until=phase_start + warmup)
    system.reset_measurements()
    system.kernel.run(until=phase_start + warmup + measure)
    # Sample the bottleneck metric *now*, before scale-down admin traffic
    # (drain polls, Deactivates) lands on the survivors.
    max_load = system.services.metrics.max_by_kind(ComponentKind.CLASS_OBJECT)
    measure_end = system.kernel.now
    stats = system.kernel.run_until_complete(stats_fut, max_events=20_000_000)
    clone_count = system.call(hot.loid, "CloneCount")

    drained_to_min = None
    if autoscaled:
        drained_to_min = drain_clones(system, hot.loid)
        controller.stop()
    for router in routers:
        router.stop()
    system.kernel.run()

    actions = list(controller.actions) if controller else []
    # Peak concurrent clones up to the end of the measured window: the
    # instantaneous count is noisy right at the scale thresholds (a pool
    # hovering on a watermark may have just grown or shrunk), the peak is
    # the capacity the controller actually provisioned for this level.
    peak = live = 0
    for when, what, _loid in actions:
        if when > measure_end:
            break
        live += 1 if what == "spawn" else -1
        peak = max(peak, live)
    return {
        "stats": stats,
        "max_load": max_load,
        "clone_count": clone_count,
        "peak_clones": peak,
        "drained_to_min": drained_to_min,
        "actions": actions,
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


def run(
    quick: bool = True,
    seed: int = 0,
    autoscale: Optional[float] = None,
    report: Optional[str] = None,
) -> ExperimentResult:
    """Sweep offered load 8x; autoscaled max load must stay bounded.

    ``autoscale`` (the runner's ``--autoscale`` flag) overrides the top
    load multiplier: levels become powers of two up to that value.
    ``report`` names a directory for the JSON load-slope artifact.
    """
    recorder = SeriesRecorder(x_label="load_multiplier")
    result = ExperimentResult(
        experiment="E14",
        title="load-adaptive class cloning (closed-loop autoscaler)",
        claim=(
            "a CloneController keeps the max per-class-object load bounded "
            "(log-log slope ~ 0) across an 8x offered-load sweep, while a "
            "static one-clone baseline saturates"
        ),
        recorder=recorder,
    )
    top = int(autoscale) if autoscale else 8
    levels, level = [], 1
    while level <= max(2, top):
        levels.append(level)
        level *= 2
    total_clock, total_events = 0.0, 0
    report_rows = []
    clone_counts = []
    top_loads = {}
    for level in levels:
        auto = _run_level(level, seed, quick, autoscaled=True)
        static = _run_level(level, seed, quick, autoscaled=False)
        total_clock += auto["sim_clock"] + static["sim_clock"]
        total_events += auto["sim_events"] + static["sim_events"]
        clone_counts.append(auto["peak_clones"])
        top_loads = {"auto": auto["max_load"], "static": static["max_load"]}
        recorder.add(
            level,
            autoscale_max_load=auto["max_load"],
            static_max_load=static["max_load"],
            peak_clones=auto["peak_clones"],
            spawns=sum(1 for a in auto["actions"] if a[1] == "spawn"),
        )
        for arm, out in (("autoscale", auto), ("static", static)):
            stats = out["stats"]
            result.check(
                f"L={level} {arm}: zero lost requests",
                stats.calls_failed == 0,
                f"{stats.calls_succeeded}/{stats.calls_issued}"
                + (f"; first error: {stats.errors[0]}" if stats.errors else ""),
            )
        if auto["drained_to_min"] is not None:
            result.check(
                f"L={level}: pool drains back to min_clones after the burst",
                auto["drained_to_min"],
            )
        report_rows.append(
            {
                "level": level,
                "autoscale_max_load": auto["max_load"],
                "static_max_load": static["max_load"],
                "clones": auto["clone_count"],
                "peak_clones": auto["peak_clones"],
                "actions": auto["actions"],
            }
        )
    auto_slope = recorder.slope("autoscale_max_load", log_log=True)
    static_slope = recorder.slope("static_max_load", log_log=True)
    result.check(
        "autoscaled max per-class-object load is bounded (log-log slope <= 0.15)",
        auto_slope <= 0.15,
        f"slope={auto_slope:.3f}",
    )
    result.check(
        "static baseline saturates (log-log slope >= 0.5)",
        static_slope >= 0.5,
        f"slope={static_slope:.3f}",
    )
    result.check(
        "at top load the autoscaled hot spot carries <= half the static one",
        top_loads["auto"] <= 0.5 * top_loads["static"],
        f"auto={top_loads['auto']} static={top_loads['static']}",
    )
    result.check(
        "peak clone count grows monotonically with offered load",
        all(a <= b for a, b in zip(clone_counts, clone_counts[1:], strict=False))
        and clone_counts[-1] > clone_counts[0],
        f"counts={clone_counts}",
    )
    result.sim_clock = total_clock
    result.sim_events = total_events
    if report is not None:
        path = write_report(
            report,
            "e14-autoscale",
            seed,
            {
                "seed": seed,
                "quick": quick,
                "autoscale_slope": auto_slope,
                "static_slope": static_slope,
                "levels": report_rows,
            },
        )
        result.notes = f"report: {path}"
    return result
