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

The draw order is the contract: every replay reads this stream, so
moving one draw re-cuts ``experiments_output.txt`` and the ledger
digest (``tests/scenarios/test_stream_oracle.py`` pins it).  Compiling
costs the draws and nothing more: the records are named tuples built by
``tuple.__new__``, and ``randrange``/``expovariate`` and Knuth's Poisson
are inlined as the exact ``random.Random`` recipes, so no Python frame
runs per session or per request (``tests/perf/test_compile_budget.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import List, NamedTuple, Sequence, Tuple

from repro.errors import InvalidArgument
from repro.simkernel.rng import RngStreams

from .spec import ScenarioSpec, validate

#: Data keys per (class, site) target -- read/write traffic lands on these.
KEYSPACE = 16


class Request(NamedTuple):
    """One request of a session: kind plus the think gap before it."""

    kind: str
    think: float
    denied: bool  # privileged request from an unprivileged tenant


class Arrival(NamedTuple):
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


class TickPlan(NamedTuple):
    """All sessions arriving during one tick of the timeline."""

    index: int
    t0: float
    phase: str
    arrivals: Tuple[Arrival, ...]


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
    drawn but not the shape of the language.  It must lie in
    ``[0, inf)``.

    Each draw is the one ``random.Random`` makes for the method the
    comment beside it names: ``randrange(n)`` is CPython's
    ``_randbelow`` rejection loop over ``getrandbits(n.bit_length())``
    and ``expovariate(lambd)`` is ``-log(1.0 - random()) / lambd``.
    """
    validate(spec)
    if not 0.0 <= rate_scale < math.inf:  # NaN fails both comparisons
        raise InvalidArgument(f"rate_scale must be in [0, inf), got {rate_scale!r}")
    rng = RngStreams(seed).stream(f"scenario-{spec.name}")
    random, getrandbits, log = rng.random, rng.getrandbits, math.log
    new = tuple.__new__
    sites, tick_ms, locality = spec.sites, spec.tick_ms, spec.mix.locality
    targets = spec.targets_per_site
    k_other = (sites - 1).bit_length()
    k_slot = targets.bit_length()
    k_key = KEYSPACE.bit_length()
    zipf = _zipf_cdf(spec.n_classes, spec.mix.zipf_s)
    tenant_cdf = _cdf([t.weight for t in spec.tenants])
    kind_names = list(spec.mix.kinds)
    kind_cdf = _cdf([spec.mix.kinds[k] for k in kind_names])
    # One shared think-0 request per (kind, tenant privilege): a session's
    # first request, and every later one when the phase has no think time.
    firsts_by_privilege = {
        ok: [new(Request, (k, 0.0, k == "privileged" and not ok)) for k in kind_names]
        for ok in (False, True)
    }
    tenant_firsts = [firsts_by_privilege[t.privileged] for t in spec.tenants]
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
        think_time, p_continue = session.think_time, session.p_continue
        max_requests = session.max_requests
        lambd = 1.0 / think_time if think_time > 0 else 0.0
        arrivals: List[Arrival] = []
        for site in range(sites):
            rate = site_rate(spec, phase_index, site, t0 - phase_start)
            mean = max(0.0, rate) * tick_ms * rate_scale
            # Knuth's Poisson sampler (exact, fine for per-tick means).
            count = 0
            if mean > 0.0:
                threshold = math.exp(-mean)
                product = random()
                while product > threshold:
                    count += 1
                    product *= random()
            for _ in range(count):
                offset = random() * tick_ms
                tenant = bisect_right(tenant_cdf, random())
                klass = bisect_right(zipf, random())
                if sites > 1 and random() >= locality:
                    target_site = getrandbits(k_other)  # randrange(sites - 1)
                    while target_site >= sites - 1:
                        target_site = getrandbits(k_other)
                    if target_site >= site:
                        target_site += 1
                else:
                    target_site = site
                slot = getrandbits(k_slot)  # randrange(targets)
                while slot >= targets:
                    slot = getrandbits(k_slot)
                key = getrandbits(k_key)  # randrange(KEYSPACE)
                while key >= KEYSPACE:
                    key = getrandbits(k_key)
                firsts = tenant_firsts[tenant]
                requests = [firsts[bisect_right(kind_cdf, random())]]
                while len(requests) < max_requests and random() < p_continue:
                    req = firsts[bisect_right(kind_cdf, random())]
                    if think_time > 0:
                        think = -log(1.0 - random()) / lambd  # expovariate(lambd)
                        req = new(Request, (req.kind, think, req.denied))
                    requests.append(req)
                completed = len(requests) >= max_requests
                arrivals.append(
                    new(Arrival, (offset, site, tenant, klass, target_site, slot, key,
                                  completed, tuple(requests)))
                )
        arrivals.sort(key=itemgetter(0))  # by offset; stable
        plan.append(new(TickPlan, (index, t0, phase.name, tuple(arrivals))))
        index += 1
        t0 = index * tick_ms
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
