"""The seven ledger workloads (ISSUE 11), each a seeded input generator plus
a batch runner over ``src/repro``'s public functions.

A workload is set up from a seed, then run in *batches*.  ``prepare(i)``
generates batch ``i``'s inputs outside the timed span; ``run_batch(i)``
executes it and consumes every result inside the span (drains the kernel,
reads the reply).  Exact counts and the sim digest are read after
``self.batches`` batches (the *checkpoint*); ``extendable`` workloads can
keep running equal batches after it so a run lasts ``--seconds``.

Simulated latencies are read from ``kernel.now``, a Python property, so
they are only recorded when ``record_latency`` is set: the traced pass
leaves it off and its call counts hold the program's calls alone.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import contextmanager
from dataclasses import replace
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.errors import LegionError
from repro.megascale import BulkEngine, LiveEscalationBoundary, StateFrame
from repro.megascale.scenario import MegaScenario, build_live_system
from repro.metrics.counters import ComponentKind
from repro.net.latency import LinkClass
from repro.scenarios import (
    ScenarioDriver,
    compile_events,
    deploy,
    get_scenario,
    stream_stats,
)
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

from measure import Phases

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# ------------------------------------------------------------ shared helpers


def rich_counters(system: LegionSystem, clients) -> Dict[str, int]:
    """Cumulative public counters of one rich system, as a flat dict."""
    net = system.network.stats
    kinds = system.services.metrics.totals_by_kind()
    agents = [server.impl.agent_stats for server in system.agents.values()]
    runtimes = [client.runtime for client in clients]
    return {
        "events": system.kernel.events_executed,
        "msgs": net.messages_sent,
        "msgs_wan": net.by_class[LinkClass.WIDE_AREA],
        "msgs_lan": net.by_class[LinkClass.SAME_SITE] + net.by_class[LinkClass.SAME_HOST],
        "class_requests": kinds.get(ComponentKind.CLASS_OBJECT, 0),
        "legion_class_requests": kinds.get(ComponentKind.LEGION_CLASS, 0),
        "magistrate_requests": kinds.get(ComponentKind.MAGISTRATE, 0),
        "host_requests": kinds.get(ComponentKind.HOST_OBJECT, 0),
        "application_requests": kinds.get(ComponentKind.APPLICATION, 0),
        "agent_served": sum(a.served for a in agents),
        "agent_hits": sum(a.cache_hits for a in agents),
        "cache_hits": sum(rt.cache.stats.hits for rt in runtimes),
        "cache_lookups": sum(rt.cache.stats.lookups for rt in runtimes),
        "stale": sum(rt.stats.stale_detected for rt in runtimes),
        "refreshes": sum(rt.stats.refreshes for rt in runtimes),
        "attempts": sum(rt.stats.attempts for rt in runtimes),
        "invocations": sum(rt.stats.invocations for rt in runtimes),
        "shed": sum(rt.stats.shed for rt in runtimes),
    }


def unsettled_runtimes(system: LegionSystem, clients) -> int:
    """Runtimes whose settlement identity does not close (should be 0)."""
    servers = (
        list(system.host_servers.values())
        + list(system.magistrates.values())
        + list(system.agents.values())
        + list(clients)
    )
    bad = 0
    for server in servers:
        s = server.runtime.stats
        settled = (
            s.replies_received + s.timeouts + s.delivery_failures + s.cancelled + s.shed
        )
        if s.requests_sent != settled or server.runtime.pending_count:
            bad += 1
    return bad


def sites(n: int, hosts: int, max_processes: Optional[int] = None) -> List[SiteSpec]:
    return [
        SiteSpec(name=f"site{i}", hosts=hosts, max_processes=max_processes)
        for i in range(n)
    ]


class Workload:
    """Base: sizing, bookkeeping, and the counters every workload reports."""

    name = ""
    #: Batches at scale 1 after which exact counts and the digest are read.
    checkpoint = 1
    #: Batches do equal work, so ops_per_s is batch ops / median batch wall.
    equal_batches = True
    #: More equal batches can follow the checkpoint.
    extendable = True
    #: One kernel drives the ops, so us_per_event is defined.
    kernel_driven = True
    #: Which calibration loop tracks this workload's slowdowns (measure.py).
    calibration = "interpreter"

    def __init__(self, seed: int, scale: float = 1.0, record_latency: bool = True) -> None:
        self.seed = seed
        self.scale = scale
        self.batches = max(1, round(self.checkpoint * scale))
        self.rng = np.random.default_rng([seed, len(self.name)])
        self.attempted = 0
        self.failed = 0
        self.latencies: Optional[List[float]] = [] if record_latency else None
        self.phases = Phases()

    def setup(self) -> None:
        raise NotImplementedError

    @contextmanager
    def warming(self) -> Iterator[None]:
        """Batches run inside are set-up: no latencies kept, not attempted."""
        keep, self.latencies = self.latencies, None
        try:
            yield
        finally:
            self.latencies = keep
            self.attempted = 0

    def prepare(self, i: int) -> None:
        """Generate batch ``i``'s inputs (outside the timed span)."""

    def run_batch(self, i: int) -> int:
        """Run batch ``i``; returns the ops it attempted."""
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        """Cumulative exact counters (monotone; read at batch boundaries)."""
        raise NotImplementedError

    def events(self) -> int:
        """Kernel events executed so far (0 when no single kernel drives)."""
        return 0

    def pending_events(self) -> int:
        return 0

    def digest_parts(self) -> dict:
        """Simulated statistics that must not move for a seed."""
        raise NotImplementedError

    def verify(self) -> None:
        """End-of-run checks; adds what they find to ``self.failed``."""


class RichWorkload(Workload):
    """A workload on one ``LegionSystem`` (``self.system``), driven by
    ``self.clients``: the counters, events and digest they all share."""

    def counters(self) -> Dict[str, int]:
        return rich_counters(self.system, self.clients)

    def events(self) -> int:
        return self.system.kernel.events_executed

    def pending_events(self) -> int:
        return self.system.kernel.pending_events

    def digest_parts(self) -> dict:
        return {"counters": self.counters(), "now": self.system.kernel.now}


# ------------------------------------------------------------------ warm_call


class WarmCall(RichWorkload):
    """Closed loop, 1 client, every binding warm."""

    name = "warm_call"
    checkpoint = 80
    #: 32 rounds over the 64 instances: each gets 24 Ping and 8 Increment.
    BATCH = 2048
    CLASSES, PER_CLASS = 4, 16

    def setup(self) -> None:
        with self.phases.span("setup.build"):
            self.system = LegionSystem.build(sites(2, 2), seed=self.seed)
            self.clients = [self.system.console]
        with self.phases.span("setup.populate"):
            self.objects = []
            for c in range(self.CLASSES):
                cls = self.system.create_class(f"Warm{c}", factory=CounterImpl)
                for _ in range(self.PER_CLASS):
                    self.objects.append(self.system.create_instance(cls.loid).loid)
        with self.phases.span("setup.warm"):
            for loid in self.objects:
                self.system.call(loid, "Ping")
        self.values = [0] * len(self.objects)
        self.ops: list = []

    def prepare(self, i: int) -> None:
        n = len(self.objects)
        self.ops = [
            (k % n, self.objects[k % n], (k // n) % 4 == 3)
            for k in self.rng.permutation(self.BATCH).tolist()
        ]

    def run_batch(self, i: int) -> int:
        call = self.system.call
        kernel = self.system.kernel
        values = self.values
        lat = self.latencies
        failed = 0
        for j, loid, increment in self.ops:
            if lat is not None:
                t0 = kernel.now
            try:
                if increment:
                    values[j] += 1
                    if call(loid, "Increment", 1) != values[j]:
                        failed += 1
                elif call(loid, "Ping") != "pong":
                    failed += 1
            except LegionError:
                failed += 1
            if lat is not None:
                lat.append(kernel.now - t0)
        self.failed += failed
        self.attempted += len(self.ops)
        return len(self.ops)

    def digest_parts(self) -> dict:
        values = sum((j + 1) * v for j, v in enumerate(self.values))
        return {**super().digest_parts(), "values": values}

    def verify(self) -> None:
        with self.phases.span("verify"):
            for j, loid in enumerate(self.objects):
                if self.system.call(loid, "Get") != self.values[j]:
                    self.failed += 1
            self.failed += unsettled_runtimes(self.system, self.clients)


# ------------------------------------------------------------------ cold_bind


class ColdBind(RichWorkload):
    """Closed loop, 8 clients, working set larger than every cache."""

    name = "cold_bind"
    checkpoint = 60
    CLIENTS, PER_CLIENT = 8, 100
    SITES, HOSTS, CLASSES, PER_CLASS = 4, 4, 8, 500
    ZIPF_S = 0.9
    WARM_BATCHES = 2

    def setup(self) -> None:
        with self.phases.span("setup.build"):
            self.system = LegionSystem.build(
                sites(self.SITES, self.HOSTS, max_processes=2048),
                seed=self.seed,
                agent_cache_capacity=512,
            )
        with self.phases.span("setup.populate"):
            self.objects = []
            for c in range(self.CLASSES):
                cls = self.system.create_class(f"Cold{c}", factory=CounterImpl)
                for _ in range(self.PER_CLASS):
                    self.objects.append(self.system.create_instance(cls.loid).loid)
            self.clients = [
                self.system.new_client(f"cold-client{k}", site=f"site{k % self.SITES}")
                for k in range(self.CLIENTS)
            ]
        weights = np.arange(1, len(self.objects) + 1, dtype=float) ** -self.ZIPF_S
        self.cdf = np.cumsum(weights / weights.sum())
        self.by_rank = self.rng.permutation(len(self.objects))
        self.targets: List[list] = []
        with self.phases.span("setup.warm"), self.warming():
            for _ in range(self.WARM_BATCHES):
                self.prepare(-1)
                self.run_batch(-1)

    def prepare(self, i: int) -> None:
        n = self.CLIENTS * self.PER_CLIENT
        ranks = np.searchsorted(self.cdf, self.rng.random(n), side="right")
        picks = self.by_rank[np.minimum(ranks, len(self.objects) - 1)].tolist()
        self.targets = [
            [self.objects[j] for j in picks[k :: self.CLIENTS]]
            for k in range(self.CLIENTS)
        ]

    def _client(self, client, targets):
        invoke = client.runtime.invoke
        kernel = self.system.kernel
        lat = self.latencies
        for loid in targets:
            if lat is not None:
                t0 = kernel.now
            try:
                if (yield from invoke(loid, "Ping")) != "pong":
                    self.failed += 1
            except LegionError:
                self.failed += 1
            if lat is not None:
                lat.append(kernel.now - t0)

    def run_batch(self, i: int) -> int:
        futures = [
            self.system.spawn(self._client(client, targets), name="cold-client")
            for client, targets in zip(self.clients, self.targets, strict=True)
        ]
        self.system.run()
        self.failed += sum(1 for fut in futures if not fut.done())
        ops = self.CLIENTS * self.PER_CLIENT
        self.attempted += ops
        return ops

    def verify(self) -> None:
        with self.phases.span("verify"):
            self.failed += unsettled_runtimes(self.system, self.clients)


# ------------------------------------------------------------ lifecycle_churn


class LifecycleChurn(RichWorkload):
    """Closed loop, 1 client, every lifecycle edge of Fig. 11 per cycle."""

    name = "lifecycle_churn"
    checkpoint = 64
    #: 48 cycles: 12 per class, 12 of them with a Move (3 per class).
    BATCH = 48
    CLASSES = 4

    def setup(self) -> None:
        with self.phases.span("setup.build"):
            self.system = LegionSystem.build(sites(3, 2), seed=self.seed)
            self.clients = [self.system.console]
        with self.phases.span("setup.populate"):
            self.classes = [
                self.system.create_class(f"Churn{c}", factory=CounterImpl).loid
                for c in range(self.CLASSES)
            ]
            self.magistrates = [m.loid for m in self.system.magistrates.values()]
        self.cycles: list = []
        with self.phases.span("setup.warm"), self.warming():
            self.cycles = [(self.classes[c], True, c % 2) for c in range(self.CLASSES)]
            self.run_batch(-1)

    def prepare(self, i: int) -> None:
        self.cycles = [
            (self.classes[k % self.CLASSES], (k // self.CLASSES) % 4 == 3, k % 2)
            for k in self.rng.permutation(self.BATCH).tolist()
        ]

    def _cycle(self, cls, move: bool, which: int) -> bool:
        call = self.system.call
        loid = call(cls, "Create", {}).loid
        ok = call(loid, "Increment", 7) == 7
        magistrate = call(cls, "GetRow", loid).current_magistrates[0]
        call(magistrate, "Deactivate", loid)
        ok = call(loid, "Get") == 7 and ok  # activates on reference
        if move:
            others = [m for m in self.magistrates if m != magistrate]
            call(magistrate, "Move", loid, others[which])
            ok = call(loid, "Increment", 1) == 8 and ok
        call(cls, "Delete", loid)
        return ok

    def run_batch(self, i: int) -> int:
        kernel = self.system.kernel
        lat = self.latencies
        failed = 0
        for cls, move, which in self.cycles:
            if lat is not None:
                t0 = kernel.now
            try:
                if not self._cycle(cls, move, which):
                    failed += 1
            except LegionError:
                failed += 1
            if lat is not None:
                lat.append(kernel.now - t0)
        self.failed += failed
        self.attempted += len(self.cycles)
        return len(self.cycles)

    def verify(self) -> None:
        with self.phases.span("verify"):
            self.failed += sum(
                j.vault.opr_count for j in self.system.jurisdictions.values()
            )
            self.failed += unsettled_runtimes(self.system, self.clients)


# -------------------------------------------------------------- scenario_open


class ScenarioOpen(Workload):
    """Open loop in simulated time: three catalog scenarios, stretched."""

    name = "scenario_open"
    SCENARIOS = ("diurnal-regional", "flash-crowd", "repository")
    SLICES = 40
    checkpoint = SLICES * len(SCENARIOS)
    equal_batches = False
    extendable = False
    #: Phase-duration multiplier at scale 1 (drive wall ~5 s on the 2-core box).
    STRETCH = 40.0

    def __init__(self, seed: int, scale: float = 1.0, record_latency: bool = True) -> None:
        super().__init__(seed, scale, record_latency)
        self.batches = self.checkpoint  # the slicing is fixed; scale shortens phases
        self.stretch = max(1.0, self.STRETCH * scale)

    def setup(self) -> None:
        self.runs = []
        for name in self.SCENARIOS:
            spec = get_scenario(name)
            spec = replace(
                spec,
                phases=tuple(
                    replace(p, duration=p.duration * self.stretch) for p in spec.phases
                ),
            )
            with self.phases.span("setup.compile"):
                plan = compile_events(spec, self.seed)
            with self.phases.span("setup.build"):
                deployment = deploy(spec, self.seed)
            self.runs.append(
                {
                    "spec": spec,
                    "plan": plan,
                    "deployment": deployment,
                    "driver": ScenarioDriver(deployment, plan),
                    "length": sum(p.duration for p in spec.phases),
                    "settled": 0,
                }
            )

    def run_batch(self, i: int) -> int:
        run = self.runs[i // self.SLICES]
        part = i % self.SLICES
        system = run["deployment"].system
        driver = run["driver"]
        if part == 0:
            run["t0"] = system.kernel.now
            run["done"] = driver.start()
        if part == self.SLICES - 1:
            system.run()  # drain: every session runs to its disposition
        else:
            system.run(until=run["t0"] + run["length"] * (part + 1) / self.SLICES)
        settled = driver.stats.calls_succeeded + driver.stats.calls_failed
        ops = settled - run["settled"]
        run["settled"] = settled
        self.attempted += ops
        return ops

    def counters(self) -> Dict[str, int]:
        total: Dict[str, int] = {}
        for run in self.runs:
            dep = run["deployment"]
            for key, value in rich_counters(dep.system, dep.all_clients()).items():
                total[key] = total.get(key, 0) + value
            outcomes = run["driver"].outcome_counts()
            total["denied"] = total.get("denied", 0) + outcomes["denied"]
            total["shed_calls"] = total.get("shed_calls", 0) + outcomes["shed"]
        return total

    def events(self) -> int:
        return sum(run["deployment"].system.kernel.events_executed for run in self.runs)

    def pending_events(self) -> int:
        return max(run["deployment"].system.kernel.pending_events for run in self.runs)

    def digest_parts(self) -> dict:
        return {
            "counters": self.counters(),
            "now": [run["deployment"].system.kernel.now for run in self.runs],
            "outcomes": [run["driver"].outcome_counts() for run in self.runs],
        }

    def verify(self) -> None:
        with self.phases.span("verify"):
            latencies: List[float] = []
            for run in self.runs:
                driver, dep = run["driver"], run["deployment"]
                expect = stream_stats(run["plan"])
                got = driver.outcome_counts()
                sessions = driver.sessions
                self.failed += got["failed"] + got["pending"]
                self.failed += abs(got["denied"] - expect["denied"])
                self.failed += abs(sum(got.values()) - expect["requests"])
                self.failed += abs(sessions.started - expect["sessions"]) + sessions.active
                self.failed += 0 if run["done"].done() else 1
                self.failed += unsettled_runtimes(dep.system, dep.all_clients())
                latencies.extend(
                    r["done"] - r["issue"] for r in driver.records if r["done"] is not None
                )
            if self.latencies is not None:
                self.latencies = latencies


# ------------------------------------------------------------------- mega_*


class MegaDense(Workload):
    """Columnar frame of 10^6 ids; one tick of 500k calls per batch."""

    name = "mega_dense"
    checkpoint = 100
    kernel_driven = False
    calibration = "array"
    POPULATION = 1_000_000
    PER_TICK = 500_000
    TICKS_PER_BATCH = 1
    #: Longer than a cold wide-area bind plus call (several 80 ms round
    #: trips), so an escalated call lands before ``demote_idle`` can fold its
    #: twin back; at the scenario default of 20 ms the fold-back can read the
    #: twin before the in-flight Increment arrives and the frame loses it.
    TICK_MS = 500.0

    def setup(self) -> None:
        spec = MegaScenario(
            population=self.POPULATION, n_classes=1000, bulk_hosts=500, hot=64,
            demote_after=2,
        )
        with self.phases.span("setup.build"):
            self.system, classes, self.client = build_live_system(spec, self.seed)
        with self.phases.span("setup.populate"):
            ids = np.arange(spec.population, dtype=np.int64)
            self.frame = StateFrame(n_classes=spec.n_classes, n_hosts=spec.bulk_hosts)
            self.frame.extend(
                spec.population,
                klass=(ids % spec.n_classes).astype(np.int32),
                host=(ids % spec.bulk_hosts).astype(np.int32),
            )
            self.boundary = LiveEscalationBoundary(self.system, classes, self.client)
            self.engine = BulkEngine(
                self.frame, hot_ids=spec.hot_ids(), per_tick_limit=2,
                boundary=self.boundary, demote_after=spec.demote_after,
            )
            self.boundary.engine = self.engine
        self.tick = 0
        self.plan: list = []
        with self.phases.span("setup.warm"), self.warming():
            self.prepare(-1)
            self.run_batch(-1)

    def prepare(self, i: int) -> None:
        with self.phases.span("plan"):
            self.plan = [
                self.rng.integers(0, self.POPULATION, size=self.PER_TICK)
                for _ in range(self.TICKS_PER_BATCH)
            ]

    def run_batch(self, i: int) -> int:
        span = self.phases.span
        ops = 0
        for targets in self.plan:
            with span("tick"):
                ops += self.engine.tick(self.tick, targets).issued
            with span("kernel_run"):
                # Relative to the clock as it is: a promotion inside tick()
                # creates a rich instance and runs the kernel well past a
                # fixed tick boundary, and run(until=<the past>) would set
                # the clock back.
                kernel = self.system.kernel
                kernel.run(until=kernel.now + self.TICK_MS)
            with span("demote"):
                self.engine.demote_idle(self.tick)
            self.tick += 1
        self.attempted += ops
        return ops

    def counters(self) -> Dict[str, int]:
        ledger = self.engine.ledger
        net = self.system.network.stats
        return {
            "events": self.system.kernel.events_executed,
            "msgs": net.messages_sent,
            "msgs_wan": net.by_class[LinkClass.WIDE_AREA],
            "msgs_lan": net.by_class[LinkClass.SAME_SITE] + net.by_class[LinkClass.SAME_HOST],
            "issued": ledger.issued,
            "bulk_completed": ledger.bulk_completed,
            "escalated": ledger.escalated_issued,
            "shed_calls": ledger.shed,
            "promotions": ledger.promotions,
            "ticks": self.tick,
        }

    def digest_parts(self) -> dict:
        return {
            "counters": self.counters(),
            "now": self.system.kernel.now,
            "values": self.frame.value_checksum(),
        }

    def verify(self) -> None:
        with self.phases.span("verify"):
            self.system.kernel.run()  # late escalated replies
            self.engine.demote_all()
            ledger = self.engine.ledger
            served = ledger.bulk_completed + ledger.escalated_completed
            self.failed += len(self.boundary.failures)
            self.failed += 0 if self.engine.settled() else 1
            self.failed += abs(int(self.frame.value.sum()) - served)
            self.failed += unsettled_runtimes(self.system, [self.client])


class MegaSparse(MegaDense):
    """Same frame, 1,000 calls per tick: BulkEngine.tick's fixed cost."""

    name = "mega_sparse"
    checkpoint = 120
    PER_TICK = 1_000
    #: A sparse tick is ~14 ms; two make a batch longer than MIN_BATCH_S.
    TICKS_PER_BATCH = 2


# ---------------------------------------------------------------- quick_sweep


_WALL = re.compile(r"^(  (?:PASS|FAIL)  .*?)\s+[0-9.]+s$", re.MULTILINE)


def mask_wall(text: str) -> str:
    """The sweep's printed output with the per-experiment wall column cut."""
    return _WALL.sub(r"\1", text)


class QuickSweep(Workload):
    """The quick experiment sweep, in-process, once; one experiment per batch,
    in a seeded order, reported in the runner's own order."""

    name = "quick_sweep"
    equal_batches = False
    extendable = False
    kernel_driven = False
    #: Stand-in for "1 % size": the sweep has no size knob below --quick.
    #: The traced pass (scale 0.1) still runs all 22, so that flow, health,
    #: faults, autoscale and replication show in the attribution.
    SMALL = ("e1", "e5", "e12", "a2")
    #: Every experiment runs at the seed of the committed oracle
    #: (experiments_output.txt): at most other seeds some claim checks fail
    #: (7 of 10 seeds tried: 2 to 8 experiments each), and a benchmark needs
    #: ops that succeed.  ``--seed`` shuffles the order they run in.
    EXPERIMENT_SEED = 0

    def setup(self) -> None:
        with self.phases.span("setup.import"):
            for name in [m for m in sys.modules if m.startswith("repro.experiments")]:
                del sys.modules[name]
            from repro.experiments import runner
        self.runner = runner
        self.canonical = list(runner.RUNNERS) if self.scale >= 0.1 else list(self.SMALL)
        order = self.rng.permutation(len(self.canonical)).tolist()
        self.names = [self.canonical[k] for k in order]
        self.batches = len(self.names)
        self.outcomes: list = []
        self.output = ""

    def run_batch(self, i: int) -> int:
        self.outcomes += self.runner.run_many(
            [self.names[i]], quick=True, seeds=(self.EXPERIMENT_SEED,), jobs=1
        )
        if len(self.outcomes) == len(self.names):
            with self.phases.span("render"):
                by_name = {o.name: o for o in self.outcomes}
                ordered = [by_name[name] for name in self.canonical]
                body = "".join(o.report + "\n\n" for o in ordered)
                self.output = body + self.runner.render_summary(ordered, False) + "\n"
        self.attempted += 1
        return 1

    def counters(self) -> Dict[str, int]:
        return {}

    def checks(self) -> Dict[str, int]:
        return {
            "passed": self.output.count("[PASS]"),
            "failed": self.output.count("[FAIL]"),
        }

    def digest_parts(self) -> dict:
        return {"output": mask_wall(self.output), "checks": self.checks(),
                "order": self.names}

    def verify(self) -> None:
        with self.phases.span("verify"):
            self.failed += sum(1 for o in self.outcomes if not o.passed)
            self.failed += self.checks()["failed"]
            if len(self.names) == len(self.runner.RUNNERS):
                with open(os.path.join(REPO_ROOT, "experiments_output.txt")) as fh:
                    if mask_wall(fh.read()) != mask_wall(self.output):
                        self.failed += 1


WORKLOAD_CLASSES = {
    cls.name: cls
    for cls in (
        WarmCall, ColdBind, LifecycleChurn, ScenarioOpen, MegaDense, MegaSparse, QuickSweep,
    )
}
