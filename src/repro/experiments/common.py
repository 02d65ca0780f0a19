"""Shared experiment machinery: results, checks, and testbed helpers."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

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

    @property
    def passed(self) -> bool:
        """True when every recorded check passed."""
        return all(c.passed for c in self.checks)

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


def count_messages(system: LegionSystem, fn: Callable[[], Any]) -> Tuple[Any, int]:
    """Run ``fn`` and return (its result, network messages it generated)."""
    before = system.network.stats.messages_sent
    result = fn()
    return result, system.network.stats.messages_sent - before


def uniform_sites(n_sites: int, hosts_per_site: int, prefix: str = "site") -> List[SiteSpec]:
    """N identical workstation sites."""
    return [
        SiteSpec(name=f"{prefix}{i}", hosts=hosts_per_site) for i in range(n_sites)
    ]


def populate(
    system: LegionSystem,
    n_classes: int,
    instances_per_class: int,
    name_prefix: str = "app",
) -> Dict[LOID, List[Binding]]:
    """Create ``n_classes`` Counter classes × ``instances_per_class`` each.

    Returns class LOID → list of instance bindings.  Instances spread over
    magistrates round-robin via the classes' inherited candidate lists.
    """
    out: Dict[LOID, List[Binding]] = {}
    for c in range(n_classes):
        cls = system.create_class(
            f"{name_prefix}{c}",
            instance_factory="app.counter",
            factory=CounterImpl if c == 0 else None,
        )
        instances = [
            system.create_instance(cls.loid) for _ in range(instances_per_class)
        ]
        out[cls.loid] = instances
    return out


def site_of_binding(system: LegionSystem, binding: Binding) -> Optional[str]:
    """The site of a binding's primary element (None if unassigned)."""
    return system.network.latency.site_of(binding.address.primary().host)


