"""E16 -- geo-replication: local reads stay flat, WAN traffic drops,
repair yields to foreground load.

Claim (section 4.3 + the section-5 locality story): replicating an
object is "a matter of creating an Object Address with multiple
physical addresses in its list" -- and once the binding/call path orders
those addresses by link class, replication buys *locality*: as the
replica count grows toward one-per-jurisdiction, same-jurisdiction read
latency stays flat (every site reads its own copy), cross-jurisdiction
wire traffic falls measurably, and a regional partition stops mattering
to readers whose site holds a replica.  Meanwhile the background repair
service restores crashed group members without taxing the foreground:
its negative-priority traffic is shed first by admission control, so
foreground goodput under overload is within 5% of a no-repair run --
and the group still comes back to full strength with all its state.

Method, phase A (locality): a 3-jurisdiction system with an immutable
read-any ``GeoStore`` replicated at r = 1..3.  One patient client per
site reads in a paced loop; mid-window a timed partition cuts the
primary replica's site off from a neighbour.  Per r: mean local /
overall latency, WAN messages per read (``NetworkStats.by_class``),
and mean latency of reads issued during the partition window.

Method, phase B (repair yields): a replicated serial store (2 ms
exclusive service per read) under admission control takes open-loop
foreground reads at ``mult`` x capacity from one site.  A remote
replica crashes mid-window in BOTH arms; only the *on* arm runs
:class:`~repro.replication.repair.ReplicaRepairService`.  Goodput is
compared across arms; the on arm must also end with the group regrown
to 3 live members each holding every key.  Every runtime must settle
the flow-era identity (requests == replies + timeouts + failures +
cancelled + shed).  All simulated time from seeded state:
byte-identical across ``--jobs``.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List

import numpy as np

from repro.experiments.common import (
    Experiment,
    ExperimentResult,
    Flags,
    serial_flow,
    uniform_sites,
    write_report,
)
from repro.metrics.recorder import SeriesRecorder
from repro.net.latency import LinkClass
from repro.core.runtime import RetryPolicy
from repro.replication import ReplicaRepairService, ReplicaSession, enable_replication
from repro.replication.store import ReplicatedStoreImpl
from repro.security.environment import CallEnvironment
from repro.simkernel.futures import gather
from repro.simkernel.kernel import Timeout
from repro.system.legion import LegionSystem
from repro.workloads.calllog import OK
from repro.workloads.generators import OpenLoopDriver, TrafficDriver

N_SITES = 3
HOSTS_PER_SITE = 2
#: The immutable dataset every replica is seeded with (then frozen).
KEYS = [f"k{i}" for i in range(6)]

# -- phase A (locality) knobs -------------------------------------------------
READ_PACE = 4.0
READ_TIMEOUT = 400.0
#: Partition window, relative to the measurement start: long enough that
#: every sweep point issues reads inside it (the r=3 run finishes in
#: ~170 ms), short enough that patient retries ride it out.
PART_AT = 30.0
PART_LEN = 100.0
#: Readers ride out the timed partition instead of failing: wide backoff,
#: ``retry_unreachable``, zero jitter for byte-identical schedules.
PATIENT = RetryPolicy(
    max_attempts=12,
    base_backoff=10.0,
    max_backoff=200.0,
    jitter=0.0,
    budget=5_000.0,
    retry_unreachable=True,
)

# -- phase B (repair yields) knobs --------------------------------------------
SERVICE_TIME = 2.0
CAPACITY = 1.0 / SERVICE_TIME
FG_CLIENTS = 4
FG_TIMEOUT = 60.0
FLOW = serial_flow(SERVICE_TIME)
#: The remote replica dies this long after the measured window opens.
CRASH_AT = 40.0
REPAIR_INTERVAL = 60.0


def _build_store(seed: int, replicas: int, flow, service_time: float):
    """A 3-site system with replication enabled and one seeded read-any
    GeoStore group of ``replicas`` members; returns (system, directory,
    class binding, group binding)."""
    system = LegionSystem.build(
        uniform_sites(N_SITES, HOSTS_PER_SITE), seed=seed, flow=flow
    )
    directory = enable_replication(system)
    cls = system.create_class(
        "GeoStore",
        factory=lambda: ReplicatedStoreImpl(service_time=service_time),
    )
    binding = system.call(cls.loid, "CreateReplicated", replicas, "first", 1)
    session = ReplicaSession(system.console.runtime, binding, "read-any")
    system.kernel.run_until_complete(
        system.spawn(
            session.seed((key, f"value:{key}") for key in KEYS), name="e16-seed"
        )
    )
    return system, directory, cls, binding


# ---------------------------------------------------------------- phase A


def _measure_locality(replicas: int, seed: int, quick: bool) -> Dict[str, Any]:
    """One locality sweep point: paced reads from every site at ``r``
    replicas, with a timed regional partition mid-window."""
    reads = 40 if quick else 120
    system, _directory, _cls, binding = _build_store(
        seed, replicas, flow=None, service_time=0.0
    )
    kernel = system.kernel
    latency = system.network.latency
    replica_sites = sorted(
        {latency.site_of(e.host) for e in binding.address.elements}
    )

    clients = []
    for spec in system.sites:
        client = system.new_client(f"e16-{spec.name}", site=spec.name)
        client.runtime.retry_policy = PATIENT
        clients.append(client)
    for client in clients:  # warm bindings: resolution traffic is not a read
        system.call(binding.loid, "Get", KEYS[0], client=client)
    system.reset_measurements()

    # One paced reader per site: a closed loop, so its log's phase of a
    # row is the reader (client i reads at site i).
    names = [spec.name for spec in system.sites]
    keys = {id(client): itertools.cycle(KEYS) for client in clients}
    readers = TrafficDriver(
        kernel,
        clients,
        lambda client: (binding.loid, "Get", (next(keys[id(client)]),)),
        calls_per_client=reads,
        think_time=READ_PACE,
        timeout=READ_TIMEOUT,
    )
    log = readers.log

    # The partition that should hurt r=1 and not r=3: cut the primary
    # replica's site off from the next site in ring order.
    primary_site = latency.site_of(binding.address.elements[0].host)
    neighbour = names[(names.index(primary_site) + 1) % len(names)]

    def chaos():
        yield Timeout(PART_AT)
        system.network.partition(primary_site, neighbour)
        yield Timeout(PART_LEN)
        system.network.heal(primary_site, neighbour)

    start = kernel.now
    futures = [readers.start(), system.spawn(chaos(), name="e16-partition")]
    kernel.run_until_complete(gather(futures), max_events=50_000_000)
    kernel.run()  # late bounces and timers

    rows = log.rows()
    issue = log.issue[rows]
    latency = log.done[rows] - issue

    def mean(latencies: List[float]) -> float:
        return sum(latencies) / len(latencies) if latencies else 0.0

    local = np.isin(log.phase[rows], [names.index(s) for s in replica_sites])
    w0, w1 = start + PART_AT, start + PART_AT + PART_LEN
    in_part = (w0 <= issue) & (issue <= w1)
    wan = system.network.stats.by_class[LinkClass.WIDE_AREA]
    return {
        "replicas": replicas,
        "replica_sites": replica_sites,
        "reads": len(log),
        "failed": int(np.count_nonzero(log.outcome[rows] != OK)),
        "local_mean": mean(latency[local].tolist()),
        "overall_mean": mean(latency.tolist()),
        "partition_mean": mean(latency[in_part].tolist()),
        "partition_reads": int(np.count_nonzero(in_part)),
        "wan_msgs": wan,
        "wan_per_read": wan / len(log) if len(log) else 0.0,
        "settled": all(
            rt.settled for rt in system.runtimes([system.console] + clients)
        ),
        "sim_clock": kernel.now,
        "sim_events": kernel.events_executed,
    }


# ---------------------------------------------------------------- phase B


def _measure_repair(arm: str, seed: int, quick: bool, mult: int) -> Dict[str, Any]:
    """One repair arm: overloaded foreground reads plus a mid-window
    remote-replica crash; ``arm == "on"`` also runs the repair service."""
    measure = 300.0 if quick else 600.0
    warmup = 100.0
    system, directory, cls, binding = _build_store(
        seed, N_SITES, flow=FLOW, service_time=SERVICE_TIME
    )
    kernel = system.kernel
    latency = system.network.latency
    fg_site = system.sites[0].name
    clients = [
        system.new_client(f"e16-fg-{i}", site=fg_site) for i in range(FG_CLIENTS)
    ]
    for client in clients:  # warm bindings before the measured window
        system.call(binding.loid, "Get", KEYS[0], client=client)

    service = None
    if arm == "on":
        service = ReplicaRepairService(system, interval=REPAIR_INTERVAL)
        service.start()
    system.reset_measurements()

    # The victim: the replica one site over from the foreground -- remote
    # to every foreground read, so both arms' foreground paths only differ
    # by the repair traffic itself.
    victim_site = system.sites[1].name
    victim = next(
        e
        for e in binding.address.elements
        if latency.site_of(e.host) == victim_site
    )

    def chaos():
        yield Timeout(warmup + CRASH_AT)
        system.host_servers[victim.host].impl.crash_object(
            binding.loid, "e16: replica crash"
        )

    interval = FG_CLIENTS / (mult * CAPACITY)
    start = kernel.now
    fired = {client.loid: 0 for client in clients}

    def choose_call(client):
        n = fired[client.loid]
        fired[client.loid] = n + 1
        return (binding.loid, "Get", (KEYS[n % len(KEYS)],))

    driver = OpenLoopDriver(
        kernel,
        clients,
        choose_call,
        [(warmup + measure, interval)],
        stagger=interval / FG_CLIENTS,
        timeout=FG_TIMEOUT,
    )
    done = driver.start()
    chaos_fut = system.spawn(chaos(), name="e16-crash")
    kernel.run_until_complete(gather([done, chaos_fut]), max_events=50_000_000)
    if service is not None:
        service.stop()  # the sweep loops never exit; stop before draining
    kernel.run()  # drain the backlog and late replies

    repair_clients: List[Any] = []
    regrows = 0
    restored = False
    replica_keys: List[int] = []
    if service is not None:
        # Deterministic final passes: whatever the in-window sweeps left
        # undone (the measured window may end mid-sweep) completes here.
        for site in directory.sites():
            kernel.run_until_complete(
                system.spawn(service.sweep_site(site), name=f"e16-final-{site}")
            )
        kernel.run()
        repair_clients = list(service._clients.values())
        final = system.call(cls.loid, "GetBinding", binding.loid)
        # Count regrown members from group membership, not the service's
        # action log: a sweep killed at window end mid-AddReplica still
        # completes the (seeded) grow server-side, with no client left
        # to record the action.
        original = set(binding.address.elements)
        regrows = sum(1 for e in final.address.elements if e not in original)
        restored = len(final.address.elements) == N_SITES

        def audit():
            runtime = system.console.runtime
            env = CallEnvironment.originating(runtime.loid)
            for element in final.address.elements:
                # READ_TIMEOUT, not FG_TIMEOUT: a wide-area round trip
                # (80 ms) alone exceeds the foreground deadline.
                count = yield from runtime.call_element(
                    element, binding.loid, "Size", (), env, READ_TIMEOUT, 0
                )
                replica_keys.append(count)

        kernel.run_until_complete(system.spawn(audit(), name="e16-audit"))

    w0, w1 = start + warmup, start + warmup + measure
    _issue, ok_done = driver.log.ok_times()
    goodput = int(np.count_nonzero((w0 <= ok_done) & (ok_done <= w1))) / measure
    counts = driver.log.outcome_counts()
    runtimes = system.runtimes([system.console] + clients + repair_clients)
    return {
        "arm": arm,
        "mult": mult,
        "goodput": goodput,
        "outcomes": {name: counts[name] for name in ("ok", "shed", "failed")},
        "issued": len(driver.log),
        "regrows": regrows,
        "restored": restored,
        "replica_keys": replica_keys,
        "settled": all(rt.settled for rt in runtimes),
        "sim_clock": kernel.now,
        "sim_events": kernel.events_executed,
    }


# ------------------------------------------------------------- the record


def units(quick: bool, flags: Flags) -> list:
    """The independent work units of one E16 sweep.

    Phase A is one unit per replica count (1, 2, top); phase B is one
    unit per repair arm.  Each unit builds its own 3-site system from
    the seed and shares nothing, so units may run in separate worker
    processes (``--jobs N``) in any order.
    """
    replicas = flags["replicas"]
    top = min(N_SITES * HOSTS_PER_SITE, max(2, int(replicas))) if replicas else N_SITES
    return [("locality", r) for r in sorted({1, 2, top})] + [
        ("repair", "off"),
        ("repair", "on"),
    ]


def measure(unit, quick: bool, seed: int, flags: Flags) -> Dict[str, Any]:
    """Run one unit; the returned dict is picklable."""
    kind, param = unit
    if kind == "locality":
        out = _measure_locality(param, seed, quick)
    else:
        mult = max(2, int(flags["overload"])) if flags["overload"] else 4
        out = _measure_repair(param, seed, quick, mult)
    out["kind"] = kind
    out["param"] = param
    return out


def finish(partials, quick: bool, seed: int, flags: Flags) -> ExperimentResult:
    """Merge unit partials into the E16 result, in deterministic unit
    order, so reports are byte-identical at any ``--jobs``."""
    by_unit = {(p["kind"], p["param"]): p for p in partials}
    recorder = SeriesRecorder(x_label="r_or_x")
    result = ExperimentResult(
        experiment="E16",
        title="geo-replication: locality, WAN traffic, repair that yields",
        claim=(
            "as replicas approach one-per-jurisdiction, same-jurisdiction "
            "read latency stays flat, cross-jurisdiction traffic drops, and "
            "a regional partition stops mattering to local readers; "
            "background repair restores a crashed replica with all state "
            "while costing foreground goodput under overload no more than 5%"
        ),
        recorder=recorder,
    )
    counts = [p for k, p in units(quick, flags) if k == "locality"]
    top = counts[-1]

    total_clock, total_events = 0.0, 0
    report_rows = []
    for r in counts:
        out = by_unit[("locality", r)]
        total_clock += out["sim_clock"]
        total_events += out["sim_events"]
        recorder.add(
            r,
            local_ms=round(out["local_mean"], 2),
            all_ms=round(out["overall_mean"], 2),
            part_ms=round(out["partition_mean"], 2),
            wan_per_read=round(out["wan_per_read"], 2),
        )
        result.check(
            f"r={r}: every read succeeds through the partition",
            out["failed"] == 0 and out["reads"] > 0,
            f"{out['reads'] - out['failed']}/{out['reads']} ok",
        )
        result.check(
            f"r={r}: every runtime settles",
            out["settled"],
        )
        result.check(
            f"r={r}: partition window saw reads",
            out["partition_reads"] > 0,
            f"{out['partition_reads']} reads issued in window",
        )
        report_rows.append(
            {
                "unit": f"locality-r{r}",
                "replicas": r,
                "replica_sites": out["replica_sites"],
                "reads": out["reads"],
                "local_mean": out["local_mean"],
                "overall_mean": out["overall_mean"],
                "partition_mean": out["partition_mean"],
                "wan_msgs": out["wan_msgs"],
                "wan_per_read": out["wan_per_read"],
            }
        )

    one, best = by_unit[("locality", 1)], by_unit[("locality", top)]
    result.check(
        f"r={top}: same-jurisdiction latency flat vs r=1 (<= 1.05x + 0.05 ms)",
        best["local_mean"] <= one["local_mean"] * 1.05 + 0.05,
        f"{best['local_mean']:.2f} ms vs {one['local_mean']:.2f} ms",
    )
    result.check(
        f"r={top}: overall read latency improves vs r=1",
        best["overall_mean"] < one["overall_mean"],
        f"{best['overall_mean']:.2f} ms vs {one['overall_mean']:.2f} ms",
    )
    result.check(
        f"r={top}: cross-jurisdiction traffic < 50% of r=1 (per read)",
        best["wan_per_read"] < 0.5 * one["wan_per_read"],
        f"{best['wan_per_read']:.2f} vs {one['wan_per_read']:.2f} WAN msgs/read",
    )
    result.check(
        f"r={top}: partition-window latency < 50% of r=1",
        best["partition_mean"] < 0.5 * one["partition_mean"],
        f"{best['partition_mean']:.2f} ms vs {one['partition_mean']:.2f} ms",
    )

    off, on = by_unit[("repair", "off")], by_unit[("repair", "on")]
    mult = off["mult"]
    total_clock += off["sim_clock"] + on["sim_clock"]
    total_events += off["sim_events"] + on["sim_events"]
    recorder.add(
        mult,
        goodput_off=round(off["goodput"] / CAPACITY, 3),
        goodput_on=round(on["goodput"] / CAPACITY, 3),
        regrows=on["regrows"],
    )
    for arm, out in (("off", off), ("on", on)):
        result.check(
            f"x{mult} repair-{arm}: every request settles (shed included)",
            out["settled"],
            f"outcomes={out['outcomes']}",
        )
    result.check(
        f"x{mult} repair-off: foreground keeps >= 80% of capacity",
        off["goodput"] >= 0.8 * CAPACITY,
        f"{off['goodput'] / CAPACITY:.2f}x capacity",
    )
    result.check(
        f"x{mult} repair-on: goodput within 5% of the no-repair run",
        on["goodput"] >= 0.95 * off["goodput"],
        f"{on['goodput']:.3f} vs {off['goodput']:.3f} ok/ms",
    )
    result.check(
        "repair-on: crashed replica regrown (>= 1 regrow action)",
        on["regrows"] >= 1,
        f"{on['regrows']} regrows",
    )
    result.check(
        f"repair-on: group restored to {N_SITES} live members",
        on["restored"],
    )
    result.check(
        "repair-on: every member holds the full dataset",
        len(on["replica_keys"]) == N_SITES
        and all(count == len(KEYS) for count in on["replica_keys"]),
        f"key counts {on['replica_keys']} (want {len(KEYS)} each)",
    )
    report_rows.append(
        {
            "unit": "repair",
            "mult": mult,
            "goodput_off": off["goodput"],
            "goodput_on": on["goodput"],
            "outcomes_off": off["outcomes"],
            "outcomes_on": on["outcomes"],
            "regrows": on["regrows"],
            "replica_keys": on["replica_keys"],
        }
    )
    result.sim_clock = total_clock
    result.sim_events = total_events

    if flags["report"] is not None:
        path = write_report(
            flags["report"],
            "e16-georeplication",
            seed,
            {"seed": seed, "quick": quick, "units": report_rows},
        )
        result.notes = f"report: {path}"
    return result


#: Sweep replica counts (phase A) and repair arms (phase B).  ``replicas``
#: overrides the top replica count; ``overload`` sets the phase-B
#: offered-load multiplier; ``report`` names a directory for the JSON
#: artifact.
EXPERIMENT = Experiment(("replicas", "overload", "report"), units, measure, finish)
