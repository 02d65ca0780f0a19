"""One seeded scenario, two interchangeable backends.

A :class:`MegaScenario` is a deterministic call plan over a population:
per tick, a vectorised draw picks bulk targets and a short round-robin
list of explicit *touches* lands on the standing hot set.  The plan is a
pure function of (spec, seed) -- built once from a named numpy stream --
so every backend consumes byte-identical inputs.

Two runners execute the same plan:

* :func:`run_rich` -- every object is a real Legion instance; every call
  goes through ``runtime.invoke``; the report is *measured* from the live
  system (MetricsRegistry counters, per-instance impl state, runtime
  settlement).  This is the ground truth, viable up to ~10^4 objects.
* :func:`run_columnar` -- the population lives in a
  :class:`~repro.megascale.frame.StateFrame`; bulk calls apply
  frame-at-once; only ids the scenario touches are promoted through
  :class:`LiveEscalationBoundary` into real Legion objects (and demoted
  back when quiet).  Viable at 10^6-10^7 objects.

The differential harness (``tests/megascale/test_differential.py``) runs
both at overlap scales and asserts the rendered :class:`MegaReport` is
identical -- per-class counters, settlement, value checksum, the lot.
The columnar backend is only trusted where that proof holds.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import InvalidArgument, LegionError
from repro.megascale.engine import BulkEngine
from repro.megascale.frame import StateFrame, check_int
from repro.metrics.counters import ComponentKind
from repro.system.legion import LegionSystem, SiteSpec


@dataclass(frozen=True)
class MegaScenario:
    """A deterministic mega-population workload specification."""

    population: int
    n_classes: int = 4
    #: Virtual host-slot ranges for the bulk frame (columnar backend only).
    bulk_hosts: int = 4
    #: The live testbed both backends build (sites x hosts).
    sites: int = 2
    hosts_per_site: int = 2
    ticks: int = 6
    tick_ms: float = 20.0
    calls_per_tick: int = 64
    #: Standing "interesting set": ids the scenario touches by design.
    hot: int = 4
    touches_per_tick: int = 2
    demote_after: int = 2

    def __post_init__(self) -> None:
        for name, low in (
            ("population", 1), ("n_classes", 1), ("bulk_hosts", 1), ("sites", 1),
            ("hosts_per_site", 1), ("ticks", 0), ("calls_per_tick", 0), ("hot", 0),
            ("touches_per_tick", 0), ("demote_after", 0),
        ):
            check_int("MegaScenario", name, getattr(self, name), low, math.inf)
        if not 0.0 < self.tick_ms < math.inf:
            raise InvalidArgument(
                f"MegaScenario tick_ms={self.tick_ms!r}: must be in (0, inf)"
            )
        if self.population < max(self.n_classes, self.bulk_hosts, self.hot):
            raise InvalidArgument(
                f"MegaScenario population={self.population!r}: must cover classes, "
                "bulk hosts, and the hot set"
            )
        if self.touches_per_tick and not self.hot:
            raise InvalidArgument(
                f"MegaScenario touches_per_tick={self.touches_per_tick!r}: "
                "needs hot >= 1 to land on"
            )

    def hot_ids(self) -> List[int]:
        """The hot set, spread across the id space (and thus classes/hosts)."""
        stride = max(1, self.population // max(1, self.hot))
        return [j * stride for j in range(self.hot)]


def differential_spec(population: int) -> MegaScenario:
    """The overlap-scale spec the differential harness runs both ways."""
    return MegaScenario(
        population=population,
        calls_per_tick=max(16, population // 10),
    )


def build_plan(spec: MegaScenario, seed: int) -> List[Any]:
    """Per-tick target arrays: one seeded vectorised draw + the touches.

    A pure function of (spec, seed): the draw comes from the named numpy
    stream ``mega-calls`` of a fresh :class:`RngStreams`, consumed tick
    by tick, so both backends -- and every ``--jobs``
    worker -- see byte-identical plans.
    """
    from repro.simkernel.rng import RngStreams

    rng = RngStreams(seed).numpy_stream(f"mega-calls-{spec.population}")
    hot = spec.hot_ids()
    plan = []
    for tick in range(spec.ticks):
        drawn = rng.integers(0, spec.population, size=spec.calls_per_tick)
        touches = [
            hot[(tick * spec.touches_per_tick + j) % len(hot)]
            for j in range(spec.touches_per_tick)
        ]
        plan.append(
            np.concatenate([drawn.astype(np.int64), np.asarray(touches, dtype=np.int64)])
        )
    return plan


def build_live_system(spec: MegaScenario, seed: int):
    """The (identical) live testbed both backends run on."""
    sites = [
        SiteSpec(
            name=f"mega{i}",
            hosts=spec.hosts_per_site,
            max_processes=max(1024, spec.population),
        )
        for i in range(spec.sites)
    ]
    system = LegionSystem.build(sites, seed=seed)
    classes = [
        system.create_class(f"MegaC{k}", factory=_counter_factory(k))
        for k in range(spec.n_classes)
    ]
    client = system.new_client("mega-driver", site=system.sites[0].name)
    return system, classes, client


def _counter_factory(k: int):
    from repro.workloads.apps import CounterImpl

    def factory() -> "CounterImpl":
        return CounterImpl()

    factory.__name__ = f"mega_counter_{k}"
    return factory


def _instance_servers(system) -> Dict[Any, Any]:
    """loid → ObjectServer for every running application instance."""
    out: Dict[Any, Any] = {}
    for host_server in system.host_servers.values():
        for entry in host_server.impl.processes.running():
            out[entry.loid] = entry.server
    return out


# --------------------------------------------------------------------- report


@dataclass
class MegaReport:
    """The backend-invariant facts of one scenario run.

    Everything here must be equal between the rich and columnar backends
    on the same (spec, seed) -- the rendered text is what the
    differential harness compares byte for byte.  Backend-specific
    diagnostics (promotions, allocator high-water, wall time) live on
    :class:`MegaOutcome` instead.
    """

    population: int
    ticks: int
    issued: int
    completed: int
    shed: int
    class_calls: List[int]
    value_total: int
    value_checksum: int
    settled: bool
    wire_settled: bool

    def render(self) -> str:
        lines = [
            f"mega population={self.population} ticks={self.ticks}",
            f"issued={self.issued} completed={self.completed} shed={self.shed}",
            "class_calls=" + ",".join(str(c) for c in self.class_calls),
            f"value_total={self.value_total} checksum={self.value_checksum}",
            f"settled={self.settled} wire_settled={self.wire_settled}",
        ]
        return "\n".join(lines)


@dataclass
class MegaOutcome:
    """One backend run: the comparable report + that backend's diagnostics."""

    report: MegaReport
    backend: str
    diagnostics: Dict[str, Any] = field(default_factory=dict)
    sim_clock: float = 0.0
    sim_events: int = 0


# ----------------------------------------------------------- live escalation


class LiveEscalationBoundary:
    """The rich-object side of the escalation boundary.

    ``promote`` backs each promoted id with a real Legion instance of the
    id's class, seeding the twin's state from the frame snapshot exactly
    the way a magistrate restores an object from its checkpointed OPR --
    out-of-band, not via a counted invocation.  ``call`` routes one
    escalated call through ``runtime.invoke`` on the twin; completions
    close the engine ledger asynchronously.  ``demote`` reads the twin's
    state back for the frame (the twin stays inert and is reused if the
    id is promoted again -- its Legion identity, like the dense id, is
    never recycled).

    The engine owns the boundary (and the frame); the boundary only
    *refers* to its engine, weakly -- no cycle, so dropping the engine
    frees a 10^6-row frame by refcount, not at the next gen-2 collection.
    """

    def __init__(self, system, classes, client) -> None:
        self.system = system
        self.classes = classes
        self.client = client
        self._engine: Optional[weakref.ref] = None
        self.twins: Dict[int, Any] = {}  # dense id → instance Binding
        self.failures: List[str] = []
        self.rich_calls = 0

    @property
    def engine(self) -> Optional[BulkEngine]:
        """The engine whose escalations land here (None once it is gone)."""
        return None if self._engine is None else self._engine()

    @engine.setter
    def engine(self, engine: BulkEngine) -> None:
        self._engine = weakref.ref(engine)

    def promote(self, snapshots) -> None:
        for snap in snapshots:
            i = snap["id"]
            if i not in self.twins:
                self.twins[i] = self.system.create_instance(
                    self.classes[snap["klass"]].loid
                )
            self._twin_server(i, "promote").impl.value = snap["value"]

    def call(self, i: int) -> None:
        self.rich_calls += 1
        self.system.spawn(self._one_call(i), name=f"mega-esc-{i}")

    def _one_call(self, i: int):
        try:
            yield from self.client.runtime.invoke(
                self.twins[i].loid, "Increment", 1, timeout=1_000.0
            )
        except LegionError as exc:
            self.failures.append(f"id {i}: {exc}")
            return
        self.engine.note_escalated_done(i)

    def demote(self, i: int) -> int:
        return int(self._twin_server(i, "demote").impl.value)

    def _twin_server(self, i: int, verb: str):
        """The twin's live ObjectServer: one process-table probe per host.

        A crashed-but-unreaped entry counts as absent, as it does in
        ``ProcessTable.running``.
        """
        loid = self.twins[i].loid
        for host_server in self.system.host_servers.values():
            entry = host_server.impl.processes.find(loid)
            if entry is not None and not entry.crashed:
                return entry.server
        raise LegionError(f"{verb}: twin for id {i} has no live server")

    def twin_class_calls(self, n_classes: int) -> List[int]:
        """Per-class REQUESTS measured at the twins (from the registry)."""
        counts = self.system.services.metrics.loads(ComponentKind.APPLICATION)
        by_loid = {str(binding.loid): i for i, binding in self.twins.items()}
        out = [0] * n_classes
        for name, count in counts.items():
            if name in by_loid:
                i = by_loid[name]
                out[int(self.engine.frame.klass[i])] += count
        return out


# ----------------------------------------------------------------- backends


def run_columnar(spec: MegaScenario, seed: int) -> MegaOutcome:
    """The columnar backend: bulk frame + live escalation boundary."""
    plan = build_plan(spec, seed)
    system, classes, client = build_live_system(spec, seed)

    frame = StateFrame(n_classes=spec.n_classes, n_hosts=spec.bulk_hosts)
    ids = frame.extend(
        spec.population,
        klass=(np.arange(spec.population, dtype=np.int64) % spec.n_classes).astype(
            np.int32
        ),
        host=(np.arange(spec.population, dtype=np.int64) % spec.bulk_hosts).astype(
            np.int32
        ),
    )
    assert len(ids) == spec.population
    boundary = LiveEscalationBoundary(system, classes, client)
    engine = BulkEngine(
        frame,
        hot_ids=spec.hot_ids(),
        boundary=boundary,
        demote_after=spec.demote_after,
    )
    boundary.engine = engine

    start = system.kernel.now
    for tick, targets in enumerate(plan):
        engine.tick(tick, targets)
        system.kernel.run(until=start + (tick + 1) * spec.tick_ms)
        engine.demote_idle(tick)
    system.kernel.run()  # drain late escalated replies
    engine.demote_all()

    ledger = engine.ledger
    twin_calls = boundary.twin_class_calls(spec.n_classes)
    report = MegaReport(
        population=spec.population,
        ticks=spec.ticks,
        issued=ledger.issued,
        completed=ledger.bulk_completed + ledger.escalated_completed,
        shed=ledger.shed,
        class_calls=[int(c) for c in frame.class_calls],
        value_total=int(frame.value.sum()),
        value_checksum=frame.value_checksum(),
        settled=engine.settled() and not boundary.failures,
        wire_settled=all(rt.settled for rt in system.runtimes([client])),
    )
    return MegaOutcome(
        report=report,
        backend="columnar",
        diagnostics={
            "promotions": ledger.promotions,
            "demotions": ledger.demotions,
            "rich_calls": boundary.rich_calls,
            "twin_class_calls": twin_calls,
            "escalated_by_class_match": twin_calls == frame.class_escalated.tolist(),
            "allocator_high_water": frame.allocator.high_water,
            "band_histogram": frame.band_histogram(),
            "failures": list(boundary.failures),
        },
        sim_clock=system.kernel.now,
        sim_events=system.kernel.events_executed,
    )


def run_rich(spec: MegaScenario, seed: int) -> MegaOutcome:
    """The rich-object backend: every id is a real Legion instance."""
    plan = build_plan(spec, seed)
    system, classes, client = build_live_system(spec, seed)

    instances = [
        system.create_instance(classes[i % spec.n_classes].loid)
        for i in range(spec.population)
    ]
    completed = [0]
    failures: List[str] = []

    def one_call(i: int):
        try:
            yield from client.runtime.invoke(
                instances[i].loid, "Increment", 1, timeout=1_000.0
            )
        except LegionError as exc:
            failures.append(f"id {i}: {exc}")
            return
        completed[0] += 1

    issued = 0
    start = system.kernel.now
    for tick, targets in enumerate(plan):
        for i in targets.tolist():
            issued += 1
            system.spawn(one_call(int(i)), name=f"mega-rich-{i}")
        system.kernel.run(until=start + (tick + 1) * spec.tick_ms)
    system.kernel.run()  # drain

    servers = _instance_servers(system)
    values = [int(servers[b.loid].impl.value) for b in instances]
    counts = system.services.metrics.loads(ComponentKind.APPLICATION)
    class_calls = [0] * spec.n_classes
    by_loid = {str(b.loid): i for i, b in enumerate(instances)}
    for name, count in counts.items():
        if name in by_loid:
            class_calls[by_loid[name] % spec.n_classes] += count

    checksum = 0
    mod = 2305843009213693951
    for i, v in enumerate(values):
        checksum += v * ((i % 9973) + 1) % mod
    report = MegaReport(
        population=spec.population,
        ticks=spec.ticks,
        issued=issued,
        completed=completed[0],
        shed=0,
        class_calls=class_calls,
        value_total=sum(values),
        value_checksum=checksum % mod,
        settled=completed[0] == issued and not failures,
        wire_settled=all(rt.settled for rt in system.runtimes([client])),
    )
    return MegaOutcome(
        report=report,
        backend="rich",
        diagnostics={"failures": failures},
        sim_clock=system.kernel.now,
        sim_events=system.kernel.events_executed,
    )
