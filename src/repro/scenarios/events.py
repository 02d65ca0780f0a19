"""Compile a ScenarioSpec into a backend-neutral event stream.

The compiler is a pure function of ``(spec, seed, rate_scale)`` built on
one named :class:`~repro.simkernel.rng.RngStreams` stream, so the same
spec and seed always produce the identical stream -- the property the
rich-object driver (``drive``) and the columnar kernels (``mega``)
rely on to agree on per-frame arrival counts by construction.

The stream is a :class:`ScenarioStream` of columns.  Per tick: its start
time, phase and first session.  Per session: its arrival offset, site,
tenant, class, target site, slot, key, final disposition and first
request.  Per request: its kind, the think gap before it and whether the
MayI gate denies it.  A tick's sessions are contiguous and sorted by
offset (stably), and a session's requests are contiguous, so a session
carries its complete precompiled trajectory: no backend draws randomness
at replay time and kernel interleaving can never perturb the workload.

Every backend reads the columns: the timed replay (and its hooks) a
window of whole ticks at a time (:meth:`ScenarioStream.windows`), as
plain Python lists; the columnar backend, :func:`stream_stats` and
:func:`per_tick_arrivals` whole.  No backend builds a per-session
record.

The draw order is the contract: every replay reads this stream, so
moving one draw re-cuts ``experiments_output.txt`` and the ledger
digest (``tests/scenarios/test_stream_oracle.py`` pins it).  Compiling
costs the draws and nothing more: each draw is appended to a typed
``array``, and ``randrange``/``expovariate`` and Knuth's Poisson are
inlined as the exact ``random.Random`` recipes, so no Python frame runs
per session or per request (``tests/perf/test_compile_budget.py``).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from typing import Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.errors import InvalidArgument
from repro.simkernel.rng import RngStreams

from .spec import ScenarioSpec, validate

#: Data keys per (class, site) target -- read/write traffic lands on these.
KEYSPACE = 16


class StreamWindow(NamedTuple):
    """Consecutive whole ticks of a :class:`ScenarioStream` as plain lists.

    The window's tick ``k`` holds sessions ``start[k]:start[k + 1]`` of
    the per-session lists, and session
    ``j``'s requests are ``first[j]:first[j + 1]`` of the per-request
    lists ``kind`` (names), ``think`` and ``denied``; request ``r`` of
    the window is row ``row0 + r`` of the stream.
    """

    t0: List[float]
    phase: List[str]
    start: List[int]
    offset: List[float]
    site: List[int]
    tenant: List[int]
    klass: List[int]
    target_site: List[int]
    slot: List[int]
    key: List[int]
    completed: List[bool]
    first: List[int]
    kind: List[str]
    think: List[float]
    denied: List[bool]
    row0: int


#: The column names of a :class:`ScenarioStream`, by what they index.
TICK_COLUMNS = ("t0", "phase", "start")
SESSION_COLUMNS = (
    "offset", "site", "tenant", "klass", "target_site", "slot", "key",
    "completed", "first",
)
REQUEST_COLUMNS = ("kind", "think", "denied")


class ScenarioStream:
    """A compiled event stream, held as columns (see the module docstring).

    ``start`` has one entry per tick plus one: tick ``i``'s sessions are
    ``start[i]:start[i + 1]``.  ``first`` has one entry per session plus
    one: session ``j``'s requests are ``first[j]:first[j + 1]``.
    ``phase`` and ``kind`` index ``phase_names`` and ``kind_names``.
    """

    __slots__ = TICK_COLUMNS + SESSION_COLUMNS + REQUEST_COLUMNS + (
        "phase_names", "kind_names",
    )

    def __init__(self, phase_names: Tuple[str, ...], kind_names: Tuple[str, ...],
                 **columns: np.ndarray) -> None:
        self.phase_names = phase_names
        self.kind_names = kind_names
        for name in TICK_COLUMNS + SESSION_COLUMNS + REQUEST_COLUMNS:
            setattr(self, name, columns[name])

    @property
    def sessions(self) -> int:
        return len(self.offset)

    @property
    def requests(self) -> int:
        return len(self.kind)

    def __len__(self) -> int:
        return len(self.t0)

    def window(self, lo: int, hi: int) -> StreamWindow:
        """Ticks ``lo:hi`` as plain Python lists: one slice a column."""
        s0, s1 = self.start[[lo, hi]].tolist()
        first = self.first[s0 : s1 + 1]
        r0, r1 = int(first[0]), int(first[-1])
        return StreamWindow(
            self.t0[lo:hi].tolist(),
            list(map(self.phase_names.__getitem__, self.phase[lo:hi].tolist())),
            (self.start[lo : hi + 1] - s0).tolist(),
            self.offset[s0:s1].tolist(),
            self.site[s0:s1].tolist(),
            self.tenant[s0:s1].tolist(),
            self.klass[s0:s1].tolist(),
            self.target_site[s0:s1].tolist(),
            self.slot[s0:s1].tolist(),
            self.key[s0:s1].tolist(),
            self.completed[s0:s1].tolist(),
            (first - r0).tolist(),
            list(map(self.kind_names.__getitem__, self.kind[r0:r1].tolist())),
            self.think[r0:r1].tolist(),
            self.denied[r0:r1].tolist(),
            r0,
        )

    def windows(self, sessions: int) -> Iterator[StreamWindow]:
        """The whole stream as windows of whole ticks, each closed once it
        holds ``sessions`` sessions (the last may hold fewer)."""
        start = self.start.tolist()
        lo, last = 0, len(start) - 1
        for hi in range(1, last + 1):
            if start[hi] - start[lo] >= sessions or hi == last:
                yield self.window(lo, hi)
                lo = hi

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScenarioStream):
            return NotImplemented
        return (
            self.phase_names == other.phase_names
            and self.kind_names == other.kind_names
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in TICK_COLUMNS + SESSION_COLUMNS + REQUEST_COLUMNS
            )
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return (
            f"<ScenarioStream ticks={len(self)} sessions={self.sessions} "
            f"requests={self.requests}>"
        )


def _cdf(weights: Sequence[float]) -> List[float]:
    total = float(sum(weights))
    acc, out = 0.0, []
    for w in weights:
        acc += w / total
        out.append(acc)
    return out


def _zipf_cdf(n: int, s: float) -> List[float]:
    return _cdf([(rank + 1) ** (-s) for rank in range(n)])


def _typecode(bound: int) -> str:
    """The smallest unsigned ``array`` typecode holding ``0..bound - 1``."""
    return "B" if bound <= 1 << 8 else "H" if bound <= 1 << 16 else "Q"


def compile_events(
    spec: ScenarioSpec, seed: int, rate_scale: float = 1.0
) -> ScenarioStream:
    """The deterministic event stream for ``spec`` at ``seed``.

    ``rate_scale`` uniformly multiplies every arrival rate (the
    ``--overload`` composition knob); it changes how many sessions are
    drawn but not the shape of the language.  It must lie in
    ``[0, inf)``.

    Each draw is the one ``random.Random`` makes for the method the
    comment beside it names: ``randrange(n)`` is CPython's
    ``_randbelow`` rejection loop over ``getrandbits(n.bit_length())``
    and ``expovariate(lambd)`` is ``-log(1.0 - random()) / lambd``.
    Sessions are drawn site by site and then ordered by offset within
    their tick; their columns are written in draw order and permuted
    once at the end.
    """
    validate(spec)
    if not 0.0 <= rate_scale < math.inf:  # NaN fails both comparisons
        raise InvalidArgument(f"rate_scale must be in [0, inf), got {rate_scale!r}")
    rng = RngStreams(seed).stream(f"scenario-{spec.name}")
    random, getrandbits, log = rng.random, rng.getrandbits, math.log
    sites, tick_ms, locality = spec.sites, spec.tick_ms, spec.mix.locality
    targets = spec.targets_per_site
    k_other = (sites - 1).bit_length()
    k_slot = targets.bit_length()
    k_key = KEYSPACE.bit_length()
    zipf = _zipf_cdf(spec.n_classes, spec.mix.zipf_s)
    tenant_cdf = _cdf([t.weight for t in spec.tenants])
    kind_names = tuple(spec.mix.kinds)
    kind_cdf = _cdf([spec.mix.kinds[k] for k in kind_names])
    phase_ends: List[float] = []
    acc = 0.0
    for phase in spec.phases:
        acc += phase.duration
        phase_ends.append(acc)
    caps = [p.session.max_requests for p in spec.phases]
    # Draw-order columns: per tick, per session, per request.
    t0s, tick_phase = array("d"), array(_typecode(len(spec.phases)))
    tick_sessions = array("Q")
    offsets = array("d")
    site_col = array(_typecode(sites))
    tenant_col = array(_typecode(len(spec.tenants)))
    klass_col = array(_typecode(spec.n_classes))
    target_col = array(_typecode(sites))
    slot_col = array(_typecode(targets))
    key_col = array(_typecode(KEYSPACE))
    count_col = array(_typecode(max(caps) + 1))
    kind_col, think_col = array(_typecode(len(kind_names))), array("d")
    new_session = offsets.append
    new_site, new_tenant, new_klass = site_col.append, tenant_col.append, klass_col.append
    new_target, new_slot, new_key = target_col.append, slot_col.append, key_col.append
    new_count, new_kind, new_think = count_col.append, kind_col.append, think_col.append
    index, t0 = 0, 0.0
    while t0 < acc - 1e-9:
        phase_index = min(bisect_right(phase_ends, t0), len(spec.phases) - 1)
        phase = spec.phases[phase_index]
        phase_start = phase_ends[phase_index] - phase.duration
        session = phase.session
        think_time, p_continue = session.think_time, session.p_continue
        max_requests = session.max_requests
        lambd = 1.0 / think_time if think_time > 0 else 0.0
        arrival = phase.arrival
        base, t_in_phase = arrival.rate / sites, t0 - phase_start
        for site in range(sites):
            # The site's arrival rate (sessions/ms) at this tick.
            if arrival.kind == "diurnal":
                shift = arrival.period * site / sites  # time-zone offset
                angle = 2.0 * math.pi * (t_in_phase + shift) / arrival.period
                rate = base * (1.0 + arrival.amplitude * math.sin(angle))
            elif arrival.kind == "flash":
                in_surge = (
                    arrival.surge_at
                    <= t_in_phase
                    < arrival.surge_at + arrival.surge_duration
                )
                rate = base * (arrival.surge_mult if in_surge else 1.0)
            else:
                rate = base
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
                new_session(random() * tick_ms)
                new_site(site)
                new_tenant(bisect_right(tenant_cdf, random()))
                new_klass(bisect_right(zipf, random()))
                if sites > 1 and random() >= locality:
                    target_site = getrandbits(k_other)  # randrange(sites - 1)
                    while target_site >= sites - 1:
                        target_site = getrandbits(k_other)
                    if target_site >= site:
                        target_site += 1
                else:
                    target_site = site
                new_target(target_site)
                slot = getrandbits(k_slot)  # randrange(targets)
                while slot >= targets:
                    slot = getrandbits(k_slot)
                new_slot(slot)
                key = getrandbits(k_key)  # randrange(KEYSPACE)
                while key >= KEYSPACE:
                    key = getrandbits(k_key)
                new_key(key)
                new_kind(bisect_right(kind_cdf, random()))
                new_think(0.0)
                n = 1
                while n < max_requests and random() < p_continue:
                    new_kind(bisect_right(kind_cdf, random()))
                    if think_time > 0:
                        new_think(-log(1.0 - random()) / lambd)  # expovariate(lambd)
                    else:
                        new_think(0.0)
                    n += 1
                new_count(n)
        t0s.append(t0)
        tick_phase.append(phase_index)
        tick_sessions.append(len(offsets))
        index += 1
        t0 = index * tick_ms
    # Order the sessions by (tick, offset), stably, gather each one's
    # requests after it, and derive dispositions and denials.
    start = np.zeros(len(t0s) + 1, dtype=np.min_scalar_type(len(offsets)))
    start[1:] = tick_sessions
    tick_of = np.arange(len(t0s)).repeat(np.diff(start))
    offset = np.asarray(offsets)
    order = np.lexsort((offset, tick_of))
    counts = np.asarray(count_col)
    # A session's first request in draw order.
    drawn_first = (counts.cumsum() - counts).astype(np.int64)
    counts = counts[order]
    first = np.zeros(len(counts) + 1, dtype=np.min_scalar_type(len(kind_col)))
    first[1:] = counts.cumsum()
    gather = (drawn_first[order] - first[:-1].astype(np.int64)).repeat(counts)
    gather += np.arange(len(kind_col))
    kind = np.asarray(kind_col)[gather]
    tenant = np.asarray(tenant_col)[order]
    phase_of = np.asarray(tick_phase)
    unprivileged = np.array([not t.privileged for t in spec.tenants])
    if "privileged" in kind_names:
        denied = unprivileged[tenant].repeat(counts) & (
            kind == kind_names.index("privileged")
        )
    else:
        denied = np.zeros(len(kind), dtype=bool)
    return ScenarioStream(
        tuple(p.name for p in spec.phases),
        kind_names,
        t0=np.asarray(t0s),
        phase=phase_of,
        start=start,
        offset=offset[order],
        site=np.asarray(site_col)[order],
        tenant=tenant,
        klass=np.asarray(klass_col)[order],
        target_site=np.asarray(target_col)[order],
        slot=np.asarray(slot_col)[order],
        key=np.asarray(key_col)[order],
        completed=counts >= np.array(caps)[phase_of[tick_of]],
        first=first,
        kind=kind,
        think=np.asarray(think_col)[gather],
        denied=denied,
    )


def per_tick_arrivals(plan: ScenarioStream) -> List[int]:
    """Session arrivals per tick -- the frame counts both backends share."""
    return np.diff(plan.start).tolist()


def stream_stats(plan: ScenarioStream) -> dict:
    """Summary tallies of a compiled stream (sessions, requests, denials)."""
    sessions = plan.sessions
    completed = int(plan.completed.sum())
    return {
        "sessions": sessions,
        "requests": plan.requests,
        "denied": int(plan.denied.sum()),
        "completed": completed,
        "abandoned": sessions - completed,
    }
