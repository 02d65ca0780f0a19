"""Compile a ScenarioSpec into a backend-neutral event stream.

The compiler is a pure function of ``(spec, seed, rate_scale)`` built on
one named :class:`~repro.simkernel.rng.RngStreams` stream, so the same
spec and seed always produce the identical stream -- the property the
rich-object driver (``drive``) and the columnar kernels (``mega``)
rely on to agree on per-frame arrival counts by construction.

The stream is a list of :class:`TickPlan` frames.  Each frame holds the
sessions that *arrive* during that tick; a session carries its complete
precompiled trajectory (request kinds, think gaps, final disposition),
so no backend draws randomness at replay time and kernel interleaving
can never perturb the workload.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.simkernel.rng import RngStreams

from .spec import ScenarioSpec, validate

#: Data keys per (class, site) target -- read/write traffic lands on these.
KEYSPACE = 16


@dataclass(frozen=True)
class Request:
    """One request of a session: kind plus the think gap before it."""

    kind: str
    think: float
    denied: bool  # privileged request from an unprivileged tenant


@dataclass(frozen=True)
class Arrival:
    """One session arrival with its full precompiled trajectory."""

    offset: float  # ms after the tick start
    site: int  # caller's jurisdiction
    tenant: int  # index into spec.tenants
    klass: int  # target class (Zipf-ranked: 0 is hottest)
    target_site: int  # jurisdiction whose instance pool is targeted
    slot: int  # instance index within (klass, target_site)
    key: int  # data key for read/write requests
    completed: bool  # ran to max_requests (else abandoned)
    requests: Tuple[Request, ...]


@dataclass(frozen=True)
class TickPlan:
    """All sessions arriving during one tick of the timeline."""

    index: int
    t0: float
    phase: str
    arrivals: Tuple[Arrival, ...]


def _poisson(rng, mean: float) -> int:
    """Knuth's Poisson sampler (exact, fine for per-tick means)."""
    if mean <= 0.0:
        return 0
    threshold = math.exp(-mean)
    count, product = 0, rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _cdf(weights: Sequence[float]) -> List[float]:
    total = float(sum(weights))
    acc, out = 0.0, []
    for w in weights:
        acc += w / total
        out.append(acc)
    return out


def _zipf_cdf(n: int, s: float) -> List[float]:
    return _cdf([(rank + 1) ** (-s) for rank in range(n)])


def site_rate(spec: ScenarioSpec, phase_index: int, site: int, t_in_phase: float) -> float:
    """The arrival rate (sessions/ms) one site offers at a phase-relative time."""
    arrival = spec.phases[phase_index].arrival
    base = arrival.rate / spec.sites
    if arrival.kind == "diurnal":
        shift = arrival.period * site / spec.sites  # time-zone offset
        angle = 2.0 * math.pi * (t_in_phase + shift) / arrival.period
        return base * (1.0 + arrival.amplitude * math.sin(angle))
    if arrival.kind == "flash":
        in_surge = (
            arrival.surge_at
            <= t_in_phase
            < arrival.surge_at + arrival.surge_duration
        )
        return base * (arrival.surge_mult if in_surge else 1.0)
    return base


def compile_events(
    spec: ScenarioSpec, seed: int, rate_scale: float = 1.0
) -> List[TickPlan]:
    """The deterministic event stream for ``spec`` at ``seed``.

    ``rate_scale`` uniformly multiplies every arrival rate (the
    ``--overload`` composition knob); it changes how many sessions are
    drawn but not the shape of the language.
    """
    validate(spec)
    rng = RngStreams(seed).stream(f"scenario-{spec.name}")
    zipf = _zipf_cdf(spec.n_classes, spec.mix.zipf_s)
    tenant_cdf = _cdf([t.weight for t in spec.tenants])
    kind_names = list(spec.mix.kinds)
    kind_cdf = _cdf([spec.mix.kinds[k] for k in kind_names])
    phase_ends: List[float] = []
    acc = 0.0
    for phase in spec.phases:
        acc += phase.duration
        phase_ends.append(acc)
    plan: List[TickPlan] = []
    index, t0 = 0, 0.0
    while t0 < acc - 1e-9:
        phase_index = min(bisect_right(phase_ends, t0), len(spec.phases) - 1)
        phase = spec.phases[phase_index]
        phase_start = phase_ends[phase_index] - phase.duration
        session = phase.session
        arrivals: List[Arrival] = []
        for site in range(spec.sites):
            rate = site_rate(spec, phase_index, site, t0 - phase_start)
            mean = max(0.0, rate) * spec.tick_ms * rate_scale
            for _ in range(_poisson(rng, mean)):
                offset = rng.random() * spec.tick_ms
                tenant = bisect_right(tenant_cdf, rng.random())
                klass = bisect_right(zipf, rng.random())
                if spec.sites > 1 and rng.random() >= spec.mix.locality:
                    target_site = rng.randrange(spec.sites - 1)
                    if target_site >= site:
                        target_site += 1
                else:
                    target_site = site
                slot = rng.randrange(spec.targets_per_site)
                key = rng.randrange(KEYSPACE)
                privileged_ok = spec.tenants[tenant].privileged
                requests: List[Request] = []
                while True:
                    kind = kind_names[bisect_right(kind_cdf, rng.random())]
                    think = 0.0
                    if requests and session.think_time > 0:
                        think = rng.expovariate(1.0 / session.think_time)
                    requests.append(
                        Request(
                            kind=kind,
                            think=think,
                            denied=(kind == "privileged" and not privileged_ok),
                        )
                    )
                    if len(requests) >= session.max_requests:
                        completed = True
                        break
                    if rng.random() >= session.p_continue:
                        completed = False
                        break
                arrivals.append(
                    Arrival(
                        offset=offset,
                        site=site,
                        tenant=tenant,
                        klass=klass,
                        target_site=target_site,
                        slot=slot,
                        key=key,
                        completed=completed,
                        requests=tuple(requests),
                    )
                )
        arrivals.sort(key=lambda a: a.offset)
        plan.append(
            TickPlan(index=index, t0=t0, phase=phase.name, arrivals=tuple(arrivals))
        )
        index += 1
        t0 = index * spec.tick_ms
    return plan


def per_tick_arrivals(plan: Sequence[TickPlan]) -> List[int]:
    """Session arrivals per tick -- the frame counts both backends share."""
    return [len(tick.arrivals) for tick in plan]


def stream_stats(plan: Sequence[TickPlan]) -> dict:
    """Summary tallies of a compiled stream (sessions, requests, denials)."""
    sessions = requests = denied = completed = 0
    for tick in plan:
        for a in tick.arrivals:
            sessions += 1
            completed += a.completed
            requests += len(a.requests)
            denied += sum(r.denied for r in a.requests)
    return {
        "sessions": sessions,
        "requests": requests,
        "denied": denied,
        "completed": completed,
        "abandoned": sessions - completed,
    }
