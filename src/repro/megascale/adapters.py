"""Mega-scale phases for the experiments (the ``--mega N`` flag).

Three adapters, one per experiment the flag wires into:

* :func:`run_e9_mega_unit` -- one rung of the E9 size ladder: the whole
  population in a :class:`~repro.megascale.frame.StateFrame`, classes and
  host slots scaled proportionally, the standing hot set escalated into a
  real :class:`~repro.system.legion.LegionSystem` through the live
  boundary.  The claim transfers: max per-class load must stay ~flat as
  the population grows 100x.
* :func:`run_mega_autoscale` -- E14 at mega scale: a columnar *caller*
  population whose demand lands on the real CloneController's pool
  counters, with the frame's ``cache_epoch`` column modelling per-caller
  binding-cache staleness (lazy rebind on pool-epoch bumps).
* :func:`run_mega_overload` -- E15 at mega scale: per-host carryover
  queues over the object frame, an admission arm that sheds at the queue
  cap versus a baseline that queues unboundedly and serves late.

Every adapter returns a picklable dict of *deterministic* values (no
wall-clock anywhere), so the sharded runners merge partials into
byte-identical reports at any ``--jobs``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.megascale.compat import require_numpy
from repro.megascale.frame import StateFrame
from repro.megascale.scenario import MegaScenario, run_columnar

#: The E9 mega size ladder: population rungs spanning two decades below
#: the requested scale, so the log-log load fit has range.
LADDER_FLOOR = 10_000


def e9_mega_sizes(mega: int, quick: bool = True) -> List[int]:
    """The population rungs of one E9 mega sweep (sorted, deduplicated)."""
    mega = int(mega)
    floor = min(LADDER_FLOOR, mega)
    return sorted({max(floor, mega // 100), max(floor, mega // 10), mega})


def e9_mega_spec(size: int, quick: bool = True) -> MegaScenario:
    """One rung's scenario: classes, host slots, and traffic all ∝ size.

    Scaling every axis together is the point: per-class offered load is
    then *flat* in the population, so a flat max-class-load curve means
    no component's load is an increasing function of system size -- the
    paper's principle restated at 10^6-10^7 objects.
    """
    return MegaScenario(
        population=size,
        n_classes=max(4, size // 1_000),
        bulk_hosts=max(4, size // 2_000),
        ticks=3 if quick else 5,
        calls_per_tick=max(256, size // 2),
        hot=4,
        touches_per_tick=2,
        demote_after=2,
    )


def run_e9_mega_unit(size: int, seed: int, quick: bool = True) -> Dict:
    """Run one ladder rung; returns the deterministic partial."""
    out = run_columnar(e9_mega_spec(size, quick), seed=seed)
    report, diag = out.report, out.diagnostics
    return {
        "size": size,
        "n_classes": e9_mega_spec(size, quick).n_classes,
        "issued": report.issued,
        "completed": report.completed,
        "shed": report.shed,
        "max_class_load": max(report.class_calls),
        "checksum": report.value_checksum,
        "settled": report.settled,
        "wire_settled": report.wire_settled,
        "promotions": diag["promotions"],
        "demotions": diag["demotions"],
        "allocator_high_water": diag["allocator_high_water"],
        "sim_clock": out.sim_clock,
        "sim_events": out.sim_events,
    }


# ----------------------------------------------------------------- E14 mega


#: Demand injected per simulated ms at load level 1 (scales linearly).
MEGA_DEMAND_RATE = 0.6
MEGA_TICK = 8.0
#: Refresh the pool snapshot every this-many ticks (the router cadence).
POOL_POLL_TICKS = 5


def run_mega_autoscale(
    level: int, seed: int, quick: bool, population: int
) -> Dict:
    """One E14 load level with a columnar mega-scale caller population.

    The frame rows are *callers*: each carries a binding-cache entry (the
    ``cache_epoch`` column plus a cached pool-member index).  Every
    controller tick a seeded vectorised draw picks the active callers;
    the stale ones (their cached epoch trails the pool's) lazily re-fetch
    the pool -- exactly the ClonePoolRouter contract, amortised over
    millions of cache entries -- and the tick's demand lands on the real
    pool members' CLASS_OBJECT counters.  The LoadMonitor and
    CloneController see the same signal ordinary clients would generate,
    and react with real Clone()/RetireClone() traffic.
    """
    import math

    from repro.autoscale import (
        AutoscaleConfig,
        CloneController,
        build_placement_agent,
    )
    from repro.experiments.e14_autoscale import (
        COOLDOWN,
        HIGH_WATER,
        LOW_WATER,
        MAX_CLONES,
        MAX_PROCESSES,
    )
    from repro.metrics.counters import ComponentId, ComponentKind, MetricsRegistry
    from repro.simkernel.rng import RngStreams
    from repro.system.legion import LegionSystem, SiteSpec
    from repro.workloads.apps import CounterImpl

    np = require_numpy("the E14 mega-scale phase")
    system = LegionSystem.build(
        [
            SiteSpec("east", hosts=3, max_processes=MAX_PROCESSES),
            SiteSpec("west", hosts=3, max_processes=MAX_PROCESSES),
        ],
        seed=seed,
    )
    hot = system.create_class("HotClass", factory=CounterImpl)
    placement = build_placement_agent(system)
    controller = CloneController(
        system,
        hot,
        AutoscaleConfig(
            high_water=HIGH_WATER,
            low_water=LOW_WATER,
            cooldown=COOLDOWN,
            tick=MEGA_TICK,
            max_clones=MAX_CLONES,
        ),
        placement=placement,
    )
    controller.start()

    # The caller population: one frame row per caller.  ``cache_epoch``
    # is the binding-cache column; the cached pool-member index rides in
    # a parallel array (it is only meaningful next to its epoch).
    frame = StateFrame(n_classes=1, n_hosts=4)
    frame.extend(
        population,
        klass=np.zeros(population, dtype=np.int32),
        host=(np.arange(population, dtype=np.int64) % 4).astype(np.int32),
    )
    member = np.zeros(population, dtype=np.int32)

    demand_per_tick = max(1, round(MEGA_DEMAND_RATE * level * MEGA_TICK))
    expected = min(MAX_CLONES + 1, math.ceil(MEGA_DEMAND_RATE * level / HIGH_WATER))
    warmup_ticks = math.ceil((400.0 + 550.0 * (expected - 1)) / MEGA_TICK)
    measure_ticks = 40 if quick else 100
    stream = RngStreams(seed).numpy_stream(f"e14-mega-{level}")

    metrics = system.services.metrics
    rebinds = 0
    issued = 0
    routed = 0
    peak_members = 1
    max_member_calls = 0
    start = system.kernel.now
    epoch, pool = system.call(hot.loid, "GetClonePool")
    pool_names = [str(b.loid) for b in pool]
    for k in range(warmup_ticks + measure_ticks):
        if k % POOL_POLL_TICKS == 0:
            # Refresh the pool snapshot on the router cadence, not every
            # tick: callers bound to an older epoch keep routing into the
            # stale snapshot until they next call (lazy rebind), and the
            # polling traffic itself stays negligible next to the
            # injected demand.
            epoch, pool = system.call(hot.loid, "GetClonePool")
            pool_names = [str(b.loid) for b in pool]
        peak_members = max(peak_members, len(pool))
        active = stream.integers(0, population, size=demand_per_tick)
        stale = frame.cache_epoch[active] != epoch
        stale_ids = active[stale]
        if stale_ids.size:
            rebinds += int(stale_ids.size)
            member[stale_ids] = (stale_ids % len(pool)).astype(np.int32)
            frame.cache_epoch[stale_ids] = epoch
        counts = np.bincount(member[active], minlength=len(pool))
        issued += int(active.size)
        if k == warmup_ticks:
            system.reset_measurements()
        for m, count in enumerate(counts.tolist()):
            if count:
                routed += count
                metrics.incr(
                    ComponentId(ComponentKind.CLASS_OBJECT, pool_names[m]),
                    MetricsRegistry.REQUESTS,
                    count,
                )
                if k >= warmup_ticks:
                    max_member_calls = max(max_member_calls, count)
        np.add.at(frame.value, active, 1)  # the caller-side call tally
        system.kernel.run(until=start + (k + 1) * MEGA_TICK)
    final_members = len(system.call(hot.loid, "GetClonePool")[1])

    # Scale-down: with the demand gone the pool must drain back.
    deadline = system.kernel.now + 6_000.0
    while system.kernel.now < deadline and system.call(hot.loid, "CloneCount") > 0:
        system.kernel.run(until=system.kernel.now + 100.0)
    drained = system.call(hot.loid, "CloneCount") == 0
    controller.stop()
    system.kernel.run()

    final_epoch, final_pool = system.call(hot.loid, "GetClonePool")
    fresh = frame.cache_epoch == final_epoch
    fresh_members_valid = bool((member[fresh] < len(final_pool)).all())
    return {
        "level": level,
        "population": population,
        "issued": issued,
        "routed": routed,
        "rebinds": rebinds,
        "expected_members": expected,
        "peak_members": peak_members,
        "final_members_at_load": final_members,
        "max_member_calls_per_tick": max_member_calls,
        "drained_to_min": drained,
        "fresh_members_valid": fresh_members_valid,
        "stale_fraction_final": round(
            float((~fresh).sum()) / population, 6
        ),
        "caller_calls_total": int(frame.value.sum()),
        "allocator_high_water": frame.allocator.high_water,
        "sim_clock": system.kernel.now,
        "sim_events": system.kernel.events_executed,
    }


# ----------------------------------------------------------------- E15 mega


#: Aggregate service capacity per tick, as a fraction of the population.
MEGA_CAP_FRACTION = 50
#: Queue cap (admission arm), in multiples of one host's per-tick capacity.
MEGA_QCAP_TICKS = 4
#: A served call is goodput only if it queued for <= this many ticks.
MEGA_DEADLINE_TICKS = 6


def run_mega_overload(
    level: int, arm: str, seed: int, quick: bool, population: int
) -> Dict:
    """One E15 (level, arm) unit over a mega-scale object frame.

    Per-host carryover queues: each tick's arrivals (a seeded vectorised
    draw over the whole population) are admitted against the target
    host's queue headroom -- in dense-id order within each host, so the
    admission cut is deterministic -- then every host serves up to its
    per-tick capacity, oldest first.  The **flow** arm sheds arrivals
    beyond ``MEGA_QCAP_TICKS`` of queue; the **baseline** admits
    everything and watches its queue (and thus its queueing delay) grow
    without bound, so its serves arrive late and goodput collapses.
    """
    from repro.simkernel.rng import RngStreams

    np = require_numpy("the E15 mega-scale phase")
    flow = arm == "flow"
    n_hosts = max(8, population // 125_000)
    n_classes = max(4, population // 1_000)
    cap_per_host = max(1, population // MEGA_CAP_FRACTION // n_hosts)
    qcap = MEGA_QCAP_TICKS * cap_per_host
    ticks = 12 if quick else 30
    draws_per_tick = max(1, level * population // MEGA_CAP_FRACTION)

    frame = StateFrame(n_classes=n_classes, n_hosts=n_hosts)
    frame.extend(
        population,
        klass=(np.arange(population, dtype=np.int64) % n_classes).astype(np.int32),
        host=(np.arange(population, dtype=np.int64) % n_hosts).astype(np.int32),
    )
    queue_h = np.zeros(n_hosts, dtype=np.int64)
    stream = RngStreams(seed).numpy_stream(f"e15-mega-{level}-{arm}")

    issued = admitted = shed = served = good = 0
    for _tick in range(ticks):
        targets = stream.integers(0, population, size=draws_per_tick)
        issued += int(targets.size)
        arr_obj = np.bincount(targets, minlength=population)
        uniq = np.nonzero(arr_obj)[0]
        if uniq.size == 0:
            continue
        hosts_of = frame.host[uniq].astype(np.int64)
        order = np.argsort(hosts_of, kind="stable")  # host groups, id-order within
        u = uniq[order]
        uh = hosts_of[order]
        a = arr_obj[u]
        # Exclusive running total within each host group: how many calls
        # ahead of this object already claimed headroom this tick.
        excl = np.cumsum(a) - a
        first_idx = np.searchsorted(uh, np.arange(n_hosts, dtype=np.int64))
        before = excl - excl[first_idx[uh]]
        if flow:
            headroom = np.maximum(0, qcap - queue_h)
            room = headroom[uh] - before
            adm = np.clip(room, 0, a)
        else:
            adm = a
        rej = a - adm
        frame.value[u] += adm
        frame.calls[u] += adm
        frame.shed[u] += rej
        frame.class_calls += np.bincount(
            frame.klass[u], weights=adm, minlength=n_classes
        ).astype(np.int64)
        if bool(rej.any()):
            frame.class_sheds += np.bincount(
                frame.klass[u], weights=rej, minlength=n_classes
            ).astype(np.int64)
        adm_h = np.bincount(uh, weights=adm, minlength=n_hosts).astype(np.int64)
        admitted += int(adm.sum())
        shed += int(rej.sum())
        queue_h += adm_h
        srv = np.minimum(queue_h, cap_per_host)
        # A tick's serves drain the oldest queued work: they are on time
        # iff the backlog they sat behind fits inside the deadline.
        on_time = (queue_h // cap_per_host) <= MEGA_DEADLINE_TICKS
        served += int(srv.sum())
        good += int(srv[on_time].sum())
        queue_h -= srv
        frame.queue = np.minimum(queue_h[frame.host], 2**31 - 1).astype(np.int32)

    queued_end = int(queue_h.sum())
    capacity = ticks * cap_per_host * n_hosts
    return {
        "level": level,
        "arm": arm,
        "population": population,
        "issued": issued,
        "admitted": admitted,
        "shed": shed,
        "served": served,
        "good": good,
        "queued_end": queued_end,
        "goodput_x": round(good / capacity, 4),
        "max_queue": int(queue_h.max()) if n_hosts else 0,
        "qcap": qcap,
        "settled": issued == admitted + shed and admitted == served + queued_end,
        "class_calls_total": int(frame.class_calls.sum()),
        "checksum": frame.value_checksum(),
        "sim_clock": float(ticks),
        "sim_events": issued,
    }
