"""Shared experiment machinery: the experiment record, results, checks,
the recipes several experiments share, and testbed helpers."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.faults.driver import ChaosDriver, eligible_hosts
from repro.faults.log import FaultLog
from repro.faults.plan import FaultKind, FaultPlan
from repro.faults.recovery import RecoverySweeper
from repro.flow import FlowConfig
from repro.metrics.counters import ComponentKind, MetricsRegistry
from repro.metrics.recorder import SeriesRecorder
from repro.naming.binding import Binding
from repro.naming.loid import LOID
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl


@dataclass
class Check:
    """One pass/fail assertion about a claimed shape."""

    name: str
    passed: bool
    detail: str = ""

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        detail = f" ({self.detail})" if self.detail else ""
        return f"[{mark}] {self.name}{detail}"


@dataclass
class ExperimentResult:
    """One experiment's outcome: the table, the checks, the claim."""

    experiment: str
    title: str
    claim: str
    recorder: SeriesRecorder
    checks: List[Check] = field(default_factory=list)
    notes: str = ""
    #: Optional determinism fingerprints (not rendered): the final
    #: simulated clock and total events executed by the experiment's
    #: kernel(s).  Two runs with the same (quick, seed) must agree on
    #: these bit-for-bit -- the determinism regression test relies on it.
    sim_clock: Optional[float] = None
    sim_events: Optional[int] = None

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        """Record one assertion."""
        self.checks.append(Check(name, bool(passed), detail))

    def render(self) -> str:
        """The printable report: claim, table, checks."""
        lines = [
            f"== {self.experiment}: {self.title} ==",
            f"claim: {self.claim}",
            "",
            self.recorder.to_table(),
            "",
        ]
        lines.extend(str(c) for c in self.checks)
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)


#: What every hook receives: the experiment's declared flag keywords,
#: each mapped to its value (``None`` when unset).
Flags = Mapping[str, Any]


@dataclass(frozen=True)
class Experiment:
    """One experiment, as the record the runner interprets.

    ``flags`` names the ``runner.FLAGS`` keywords it takes.  ``units(
    quick, flags)`` lists the independent work units in canonical order:
    each builds its own seeded system and shares nothing, so units may
    run in any process in any order.  ``measure(unit, quick, seed,
    flags)`` runs one and reduces it to a partial.  ``finish(partials,
    quick, seed, flags)`` merges *in unit order* into the
    :class:`ExperimentResult`, so recorder rows, check lists, float
    accumulation and written artifacts do not depend on where the units
    ran.  Units and partials cross the worker-pool boundary: both must
    pickle, and no wall-clock value may enter them.
    """

    flags: Tuple[str, ...]
    units: Callable[[bool, Flags], list]
    measure: Callable[[Any, bool, int, Flags], Any]
    finish: Callable[[list, bool, int, Flags], "ExperimentResult"]

    def bind(self, flags: Flags) -> Dict[str, Any]:
        """What the hooks receive: the declared keywords, ``None`` if unset."""
        return {keyword: flags.get(keyword) for keyword in self.flags}

    def run(self, quick: bool = True, seed: int = 0, **flags) -> "ExperimentResult":
        """The sequential reference: measure every unit, then finish.
        ``runner.run_many`` walks the same hooks and renders the same bytes."""
        unknown = sorted(set(flags) - set(self.flags))
        if unknown:
            raise TypeError(f"unknown flag(s) {unknown}; valid flags: {self.flags}")
        own = self.bind(flags)
        partials = [
            self.measure(unit, quick, seed, own) for unit in self.units(quick, own)
        ]
        return self.finish(partials, quick, seed, own)


def _run_whole(run, _unit, quick: bool, seed: int, flags: Flags):
    return run(quick=quick, seed=seed, **flags)


def whole(run: Callable[..., "ExperimentResult"], *flags: str) -> Experiment:
    """An experiment that stays one ``run(quick, seed, **flags)``: a sweep
    of one unit whose partial is its result.  Only ``measure`` is ever
    sent to a worker, so it alone is spelt so that it pickles."""
    return Experiment(
        flags,
        units=lambda quick, flags: [None],
        measure=partial(_run_whole, run),
        finish=lambda partials, quick, seed, flags: partials[0],
    )


def trace_recorder(system: LegionSystem, trace: Optional[str]):
    """Install causal tracing on ``system`` when ``trace`` names an output
    directory (the ``--trace`` flag); returns the recorder, or None.

    Experiments call this once per built system and slice
    ``recorder.spans`` around their phases; the audits and the exported
    Chrome trace add *checks and artifacts* without perturbing any counted
    metric (spans live outside the message plane).
    """
    if trace is None:
        return None
    return system.enable_tracing()


def export_trace(recorder, trace: str, experiment: str, seed: int) -> str:
    """Write spans (a recorder, or a plain span list) as Chrome trace JSON.

    Returns the path (``traces/e1-seed0.trace.json`` style), which the
    experiment appends to its notes so the report says where to look.
    """
    from repro.trace.export import write_chrome_trace

    os.makedirs(trace, exist_ok=True)
    path = os.path.join(trace, f"{experiment.lower()}-seed{seed}.trace.json")
    write_chrome_trace(getattr(recorder, "spans", recorder), path)
    return path


def write_report(report: str, stem: str, seed: int, payload: Any) -> str:
    """Write one machine-readable result artifact (the ``--report`` flag)
    as ``<report>/<stem>-seed<seed>.json``; returns the path for the notes."""
    os.makedirs(report, exist_ok=True)
    path = os.path.join(report, f"{stem}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def serial_flow(service_time: float) -> FlowConfig:
    """The flow regime of every overload arm (E15-E18): serial admission
    (capacity 1 matches a serial service's own discipline), a bounded
    queue, pushback-capable shedding, and caller credit windows.
    Application objects only -- infrastructure (agents, magistrates,
    hosts) is never shed."""
    return FlowConfig(
        capacity=1,
        queue_limit=14,
        service_estimate=service_time,
        admit_kinds=frozenset({ComponentKind.APPLICATION}),
        credit_window=8,
    )


def checkpoint(system: LegionSystem, class_loid: LOID, loid: LOID) -> None:
    """Checkpoint ``loid`` at its first magistrate, so a crash can cost
    repair traffic but never the state."""
    row = system.call(class_loid, "GetRow", loid)
    system.call(row.current_magistrates[0], "Checkpoint", loid)


class ChaosArm:
    """The chaos stack of E13, E17 and E18 ``--faults``: a FaultLog, a
    seeded FaultPlan over the crashable hosts (rng stream ``stream``), the
    ChaosDriver applying it, and a RecoverySweeper.  The caller starts
    ``driver`` and ``sweeper`` when its chaos phase begins."""

    def __init__(
        self, system: LegionSystem, stream: str, horizon: float, intensity: float,
        objects: List[str], interval: float, mix: Optional[Mapping[FaultKind, float]],
    ) -> None:
        self.system = system
        self.log = FaultLog()
        self.plan = FaultPlan.generate(
            system.services.rng.stream(stream),
            horizon=horizon,
            intensity=intensity,
            hosts=eligible_hosts(system),
            sites=[s.name for s in system.sites],
            objects=objects,
            mix=mix,
        )
        self.driver = ChaosDriver(system, self.plan, self.log)
        self.sweeper = RecoverySweeper(system, interval=interval)

    def wind_down(self) -> int:
        """Stop the sweeps, drain the kernel (late chaos events, heals and
        restores), then one final ``sweep_hosts`` per magistrate in site
        order, so losses after the traffic window are also repaired (and
        logged) before reconciliation.  Returns the messages sent before
        that final sweep."""
        self.sweeper.stop()
        kernel = self.system.kernel
        kernel.run()
        sent = self.system.network.stats.messages_sent
        for site in sorted(self.system.magistrates):
            fut = self.system.spawn(self.system.magistrates[site].impl.sweep_hosts())
            kernel.run_until_complete(fut)
        return sent

    def losses(self) -> Tuple[List[str], List[str]]:
        """The objects the log saw lost, and those never recovered (sorted)."""
        lost = sorted(set(self.log.lost_objects()))
        recovered = set(self.log.recovered_objects())
        return lost, [o for o in lost if o not in recovered]


def drain_clones(system: LegionSystem, class_loid: LOID) -> bool:
    """Scale-down, with the traffic gone: run the kernel in 100 ms slices
    for up to 6 simulated s until the class's clone pool is empty (each
    retirement is a drain plus a Deactivate, one per controller tick);
    whether it got there."""
    deadline = system.kernel.now + 6_000.0
    while system.kernel.now < deadline and system.call(class_loid, "CloneCount") > 0:
        system.kernel.run(until=system.kernel.now + 100.0)
    return system.call(class_loid, "CloneCount") == 0


def settle_governor(governor, drain: Callable[[], Any]) -> List[dict]:
    """Wind a governor down: stop its loop (an endless tick would pin the
    drain), run ``drain()``, observe the drained world once more, then
    restore every baseline.  Returns the ledger's records."""
    governor.stop_loop()
    drain()
    governor.poll()
    records = governor.ledger.to_json()
    governor.stop()
    return records


def settlement(system: LegionSystem, clients, records, fault_log: FaultLog) -> Dict[str, Any]:
    """How an open-loop run's requests settled: outcome tallies, the
    count issued, the shed count three ways (metrics, FaultLog, wire)
    and whether every runtime settled."""
    outcomes = {"ok": 0, "shed": 0, "failed": 0}
    for rec in records:
        outcomes[rec.outcome] += 1
    metrics = system.services.metrics
    runtimes = system.runtimes(clients)
    return {
        "outcomes": outcomes,
        "issued": len(records),
        "metrics_shed": sum(metrics.snapshot(None, MetricsRegistry.SHED).values()),
        "faultlog_shed": fault_log.count("request-shed"),
        "wire_shed": sum(rt.stats.shed for rt in runtimes),
        "settled": all(rt.settled for rt in runtimes),
    }


def count_messages(system: LegionSystem, fn: Callable[[], Any]) -> Tuple[Any, int]:
    """Run ``fn`` and return (its result, network messages it generated)."""
    before = system.network.stats.messages_sent
    result = fn()
    return result, system.network.stats.messages_sent - before


def uniform_sites(n_sites: int, hosts_per_site: int) -> List[SiteSpec]:
    """N identical workstation sites, ``site0`` onward."""
    return [SiteSpec(name=f"site{i}", hosts=hosts_per_site) for i in range(n_sites)]


def populate(
    system: LegionSystem, n_classes: int, instances_per_class: int
) -> Dict[LOID, List[Binding]]:
    """Create ``n_classes`` Counter classes (``app0`` onward) ×
    ``instances_per_class`` instances each.

    Returns class LOID → list of instance bindings.  Instances spread over
    magistrates round-robin via the classes' inherited candidate lists.
    """
    out: Dict[LOID, List[Binding]] = {}
    for c in range(n_classes):
        cls = system.create_class(
            f"app{c}",
            instance_factory="app.counter",
            factory=CounterImpl if c == 0 else None,
        )
        instances = [
            system.create_instance(cls.loid) for _ in range(instances_per_class)
        ]
        out[cls.loid] = instances
    return out
