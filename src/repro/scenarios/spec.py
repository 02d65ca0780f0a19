"""Declarative scenario specs: the nouns of the workload language.

A :class:`ScenarioSpec` is a frozen description of *what the world does*
to a Legion deployment -- arrival processes on simulated time, session
lifecycles as seeded transition probabilities, target mixes (Zipf
hot-class skew, per-jurisdiction locality), per-tenant priority and
deadline, and a phase timeline -- with no reference to any backend.
``repro.scenarios.events`` compiles a spec into a backend-neutral event
stream; ``drive`` replays it through the rich-object runtime and
``mega`` through the columnar frame kernels.

Specs are data, so they can come from dictionaries (:func:`from_dict`)
and every constraint is checked up front by :func:`validate` with an
actionable error naming the offending path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Mapping, Optional, Tuple

from repro.errors import LegionError

#: Request kinds the language knows; each maps to one application method
#: on :class:`repro.workloads.apps.ScenarioServiceImpl`.
REQUEST_KINDS = ("read", "write", "work", "batch", "privileged")

#: Arrival-process shapes.
ARRIVAL_KINDS = ("poisson", "diurnal", "flash")

#: Probability sums are checked to this tolerance.
_EPS = 1e-9


class ScenarioSpecError(LegionError):
    """A scenario spec failed validation; the message names the path."""


@dataclass(frozen=True)
class ArrivalSpec:
    """An arrival process on simulated time.

    ``rate`` is aggregate session arrivals per simulated ms across all
    sites.  ``diurnal`` modulates it with a sinusoid of ``period`` ms and
    relative ``amplitude``, phase-shifted per site by ``period/sites``
    (time-zone offsets); ``flash`` steps the rate up by ``surge_mult``
    for ``surge_duration`` ms starting ``surge_at`` ms into the phase.
    """

    kind: str = "poisson"
    rate: float = 0.5
    amplitude: float = 0.8
    period: float = 240.0
    surge_at: float = 0.0
    surge_duration: float = 0.0
    surge_mult: float = 1.0


@dataclass(frozen=True)
class SessionSpec:
    """A session-lifecycle state machine as seeded transition probabilities.

    Each arrived session issues a request, thinks ``think_time`` ms (an
    exponential mean), then continues with ``p_continue`` or abandons
    with ``p_abandon`` (they must sum to 1).  A session that reaches
    ``max_requests`` completes; one that stops earlier abandoned.
    """

    think_time: float = 8.0
    p_continue: float = 0.5
    p_abandon: float = 0.5
    max_requests: int = 4


@dataclass(frozen=True)
class TenantSpec:
    """One traffic population: relative weight, deadline, privilege."""

    name: str = "all"
    weight: float = 1.0
    deadline: Optional[float] = None
    privileged: bool = False


@dataclass(frozen=True)
class MixSpec:
    """Target mix: request kinds, Zipf hot-class skew, locality."""

    kinds: Mapping[str, float] = field(default_factory=lambda: {"work": 1.0})
    zipf_s: float = 0.0
    locality: float = 1.0


@dataclass(frozen=True)
class PhaseSpec:
    """One entry of the phase timeline: a named arrival+session regime."""

    name: str = "phase"
    duration: float = 200.0
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    session: SessionSpec = field(default_factory=SessionSpec)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative scenario (see module docstring)."""

    name: str
    description: str = ""
    sites: int = 2
    n_classes: int = 2
    targets_per_site: int = 1
    service_time: float = 2.0
    read_time: float = 0.25
    batch_units: float = 3.0
    tick_ms: float = 20.0
    consistency: str = "primary-copy"
    tenants: Tuple[TenantSpec, ...] = (TenantSpec(),)
    mix: MixSpec = field(default_factory=MixSpec)
    phases: Tuple[PhaseSpec, ...] = ()

    @property
    def duration(self) -> float:
        """Total timeline length in simulated ms."""
        return sum(p.duration for p in self.phases)

    @property
    def targets_total(self) -> int:
        """Instances in the deployment: classes x sites x targets/site."""
        return self.n_classes * self.sites * self.targets_per_site

    def capacity_per_ms(self) -> float:
        """Aggregate work units the deployment can serve per simulated ms."""
        return self.targets_total / self.service_time if self.service_time else 0.0


def _fail(path: str, message: str) -> None:
    raise ScenarioSpecError(f"{path}: {message}")


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        _fail(path, message)


def _require_finite(record: Any, prefix: str) -> None:
    """Refuse an infinite or NaN number in any field of one spec record.

    The range checks below compare, and ``inf`` passes a lower bound: a
    phase of ``duration=inf`` would compile forever.
    """
    for knob, value in vars(record).items():
        if isinstance(value, float) and not math.isfinite(value):
            _fail(f"{prefix}{knob}", f"{knob} must be finite, got {value}")


def _validate_arrival(a: ArrivalSpec, path: str) -> None:
    _require_finite(a, f"{path}.")
    _require(
        a.kind in ARRIVAL_KINDS,
        f"{path}.kind",
        f"unknown arrival kind {a.kind!r}; expected one of {ARRIVAL_KINDS}",
    )
    _require(a.rate >= 0, f"{path}.rate", f"rate must be >= 0, got {a.rate}")
    if a.kind == "diurnal":
        _require(
            0.0 <= a.amplitude <= 1.0,
            f"{path}.amplitude",
            f"diurnal amplitude must be in [0, 1], got {a.amplitude}",
        )
        _require(a.period > 0, f"{path}.period", f"period must be > 0, got {a.period}")
    if a.kind == "flash":
        _require(
            a.surge_at >= 0,
            f"{path}.surge_at",
            f"surge_at must be >= 0, got {a.surge_at}",
        )
        _require(
            a.surge_duration >= 0,
            f"{path}.surge_duration",
            f"surge_duration must be >= 0, got {a.surge_duration}",
        )
        _require(
            a.surge_mult >= 1,
            f"{path}.surge_mult",
            f"surge_mult must be >= 1, got {a.surge_mult}",
        )


def _validate_session(s: SessionSpec, path: str) -> None:
    _require_finite(s, f"{path}.")
    _require(
        s.think_time >= 0,
        f"{path}.think_time",
        f"think_time must be >= 0, got {s.think_time}",
    )
    for knob in ("p_continue", "p_abandon"):
        value = getattr(s, knob)
        _require(
            0.0 <= value <= 1.0,
            f"{path}.{knob}",
            f"probability must be in [0, 1], got {value}",
        )
    total = s.p_continue + s.p_abandon
    _require(
        abs(total - 1.0) <= _EPS,
        f"{path}.p_continue",
        f"p_continue + p_abandon must sum to 1, got {total}",
    )
    _require(
        s.max_requests >= 1,
        f"{path}.max_requests",
        f"max_requests must be >= 1, got {s.max_requests}",
    )


def validate(spec: ScenarioSpec) -> ScenarioSpec:
    """Check every constraint; return the spec or raise ScenarioSpecError."""
    _require(bool(spec.name), "name", "scenario name must be non-empty")
    _require_finite(spec, "")
    _require(spec.sites >= 1, "sites", f"sites must be >= 1, got {spec.sites}")
    _require(
        spec.n_classes >= 1,
        "n_classes",
        f"n_classes must be >= 1, got {spec.n_classes}",
    )
    _require(
        spec.targets_per_site >= 1,
        "targets_per_site",
        f"targets_per_site must be >= 1, got {spec.targets_per_site}",
    )
    for knob in ("service_time", "read_time", "batch_units"):
        value = getattr(spec, knob)
        _require(value > 0, knob, f"{knob} must be > 0, got {value}")
    _require(
        spec.tick_ms > 0, "tick_ms", f"tick_ms must be > 0, got {spec.tick_ms}"
    )
    _require(bool(spec.tenants), "tenants", "at least one tenant is required")
    for i, tenant in enumerate(spec.tenants):
        _require_finite(tenant, f"tenants[{i}].")
        _require(
            tenant.weight > 0,
            f"tenants[{i}].weight",
            f"weight must be > 0, got {tenant.weight}",
        )
        if tenant.deadline is not None:
            _require(
                tenant.deadline > 0,
                f"tenants[{i}].deadline",
                f"deadline must be > 0, got {tenant.deadline}",
            )
    names = [t.name for t in spec.tenants]
    _require(
        len(set(names)) == len(names),
        "tenants",
        f"tenant names must be unique, got {names}",
    )
    _require_finite(spec.mix, "mix.")
    _require(bool(spec.mix.kinds), "mix.kinds", "at least one request kind")
    for kind in spec.mix.kinds:
        _require(
            kind in REQUEST_KINDS,
            f"mix.kinds[{kind!r}]",
            f"unknown request kind; expected one of {REQUEST_KINDS}",
        )
    for kind, weight in spec.mix.kinds.items():
        _require(
            weight >= 0,
            f"mix.kinds[{kind!r}]",
            f"kind weight must be >= 0, got {weight}",
        )
    total = sum(spec.mix.kinds.values())
    _require(
        abs(total - 1.0) <= _EPS,
        "mix.kinds",
        f"kind weights must sum to 1, got {total}",
    )
    _require(
        spec.mix.zipf_s >= 0,
        "mix.zipf_s",
        f"zipf exponent must be >= 0, got {spec.mix.zipf_s}",
    )
    _require(
        0.0 <= spec.mix.locality <= 1.0,
        "mix.locality",
        f"locality must be in [0, 1], got {spec.mix.locality}",
    )
    _require(bool(spec.phases), "phases", "at least one phase is required")
    for i, phase in enumerate(spec.phases):
        path = f"phases[{i}]"
        _require(bool(phase.name), f"{path}.name", "phase name must be non-empty")
        _require_finite(phase, f"{path}.")
        _require(
            phase.duration > 0,
            f"{path}.duration",
            f"duration must be > 0, got {phase.duration}",
        )
        _validate_arrival(phase.arrival, f"{path}.arrival")
        _validate_session(phase.session, f"{path}.session")
    return spec


_NESTED = {
    "arrival": ArrivalSpec,
    "session": SessionSpec,
    "mix": MixSpec,
}


def _build(dc_type, data: Any, path: str):
    """One dataclass from a mapping, rejecting unknown keys by name."""
    if is_dataclass(dc_type) and isinstance(data, dc_type):
        return data
    if not isinstance(data, Mapping):
        _fail(path, f"expected a mapping for {dc_type.__name__}, got {type(data).__name__}")
    known = {f.name for f in fields(dc_type)}
    unknown = sorted(set(data) - known)
    if unknown:
        _fail(
            path,
            f"unknown key {unknown[0]!r}; expected one of {sorted(known)}",
        )
    kwargs = {}
    for key, value in data.items():
        sub = f"{path}.{key}" if path else key
        if key in _NESTED:
            kwargs[key] = _build(_NESTED[key], value, sub)
        elif key == "tenants":
            kwargs[key] = tuple(
                _build(TenantSpec, t, f"{sub}[{i}]") for i, t in enumerate(value)
            )
        elif key == "phases":
            kwargs[key] = tuple(
                _build(PhaseSpec, p, f"{sub}[{i}]") for i, p in enumerate(value)
            )
        elif key == "kinds":
            kwargs[key] = dict(value)
        else:
            kwargs[key] = value
    try:
        return dc_type(**kwargs)
    except TypeError as exc:  # e.g. a missing required field like name
        _fail(path or dc_type.__name__, str(exc))


def from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Build and validate a ScenarioSpec from nested dictionaries.

    Unknown keys raise :class:`ScenarioSpecError` naming the valid ones,
    so a typo like ``durration`` fails loudly at load time rather than
    silently falling back to a default.
    """
    return validate(_build(ScenarioSpec, data, ""))
