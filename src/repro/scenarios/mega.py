"""Columnar mega-scale backend for the scenario language.

Any catalog scenario runs at 10^6 callers: the compiled event stream is
replayed through vectorised per-tick frame kernels (the PR-9 columnar
idiom) instead of per-object simulation processes.  The scaling model is
*sharded symmetry*: a population of N callers is served by
``scale = ceil(N / base)`` disjoint target shards, each receiving the
identical base stream -- per-target dynamics are exactly the base
dynamics, and every tally scales linearly.  That keeps the kernel an
exact, deterministic function of ``(spec, seed, population)`` and makes
rich-vs-mega agreement on per-frame arrival counts a property by
construction (compare at scale 1).

Accounting is exact: per tick, requests are admitted against a bounded
per-target backlog (``QCAP_TICKS`` ticks of work), the excess is shed,
privileged requests from unprivileged tenants are denied up front (the
MayI gate, columnar form), and each target serves FIFO at one ms of
work per ms.  The settled identity ``issued == denied + shed + served``
holds after the drain, per target, per frame.
"""

from __future__ import annotations

import hashlib
import json
from typing import List

import numpy as np

from .events import ScenarioStream
from .spec import ScenarioSpec

#: A target's backlog is capped at this many ticks of work; beyond it,
#: arrivals are shed (the columnar form of bounded admission queues).
QCAP_TICKS = 4

#: Sessions in one shard of the sharded-symmetry scaling model.
BASE_SHARD_CALLERS = 1000


def _cost(spec: ScenarioSpec, kind: str) -> float:
    if kind == "read":
        return spec.read_time
    if kind == "batch":
        return spec.batch_units * spec.service_time
    return spec.service_time


def compile_frames(spec: ScenarioSpec, plan: ScenarioStream) -> dict:
    """Flatten a compiled stream into columnar per-request arrays.

    Requests are placed at their *nominal* times (arrival offset plus
    cumulative think gaps -- the open-loop rendering of the session
    state machine) and sorted FIFO per tick.  ``plan`` is
    ``compile_events(spec, seed)``; :func:`frame_arrivals` and
    :func:`run_scenario_mega` both read the one result.  The columns are
    read whole: a session's clock advances one request position at a
    time over every session still that long, so each nominal time is the
    same sequence of float additions a walk of the session would make.
    """
    counts = np.diff(plan.first.astype(np.int64))
    first = plan.first[:-1].astype(np.int64)
    tick_of = np.arange(len(plan)).repeat(np.diff(plan.start))
    clock = plan.t0[tick_of] + plan.offset
    times = np.empty(plan.requests)
    live = np.arange(plan.sessions)
    position = 0
    while len(live):
        at = first[live] + position
        clock[live] += plan.think[at]
        times[at] = clock[live]
        position += 1
        live = live[counts[live] > position]
    tid = (plan.klass.astype(np.int64) * spec.sites + plan.target_site) * spec.targets_per_site
    tid += plan.slot
    costs = np.array([_cost(spec, kind) for kind in plan.kind_names])[plan.kind]
    is_first = np.zeros(plan.requests, dtype=bool)
    is_first[first] = True
    order = np.lexsort((np.arange(len(times)), times))
    return {
        "time": times[order],
        "tid": tid.repeat(counts)[order],
        "cost": costs[order],
        "denied": plan.denied[order],
        "first": is_first[order],
        "n_targets": spec.targets_total,
        "n_ticks": len(plan),
    }


def frame_arrivals(spec: ScenarioSpec, frames: dict) -> List[int]:
    """Per-frame session arrivals as the columnar backend sees them.

    ``frames`` is ``compile_frames(spec, plan)``.  The rich backend's
    counts are ``events.per_tick_arrivals(plan)``; the two must agree
    frame for frame (a Hypothesis property).
    """
    n_ticks = frames["n_ticks"]
    session_times = frames["time"][frames["first"]]
    index = np.minimum(
        (session_times // spec.tick_ms).astype(np.int64), n_ticks - 1
    )
    return np.bincount(index, minlength=n_ticks).astype(int).tolist()


def run_scenario_mega(
    spec: ScenarioSpec, frames: dict, population: int = 1_000_000
) -> dict:
    """One scenario at ``population`` callers through the frame kernels.

    ``frames`` is ``compile_frames(spec, plan)``."""
    n_targets = frames["n_targets"]
    tick_ms = spec.tick_ms
    qcap = QCAP_TICKS * tick_ms

    base_sessions = int(frames["first"].sum())
    scale = max(1, -(-population // max(1, base_sessions)))

    time_arr, tid_arr = frames["time"], frames["tid"]
    cost_arr, denied_arr = frames["cost"], frames["denied"]
    tick_of = (time_arr // tick_ms).astype(np.int64)
    horizon = int(tick_of.max()) + 1 if len(tick_of) else frames["n_ticks"]

    backlog = np.zeros(n_targets)  # ms of admitted, unserved work
    served_cum = np.zeros(n_targets)  # ms of work served so far
    positions: List[List[float]] = [[] for _ in range(n_targets)]
    served_ptr = [0] * n_targets
    pos_end = np.zeros(n_targets)  # admitted-work watermark per target

    issued = denied_n = shed_n = served_n = 0
    frame_rows: List[dict] = []
    peak_backlog = 0.0

    def serve_one_tick() -> int:
        nonlocal served_n
        served_now = np.minimum(backlog, tick_ms)
        backlog[:] = backlog - served_now
        served_cum[:] = served_cum + served_now
        done = 0
        for t in range(n_targets):
            pos, ptr = positions[t], served_ptr[t]
            limit = served_cum[t] + 1e-9
            while ptr < len(pos) and pos[ptr] <= limit:
                ptr += 1
                done += 1
            served_ptr[t] = ptr
        served_n += done
        return done

    start = 0
    for k in range(horizon):
        stop = start
        while stop < len(tick_of) and tick_of[stop] == k:
            stop += 1
        tids_k = tid_arr[start:stop]
        costs_k = cost_arr[start:stop]
        denied_k = denied_arr[start:stop]
        start = stop

        issued += len(tids_k)
        denied_tick = int(denied_k.sum())
        denied_n += denied_tick
        live = ~denied_k
        tids_live, costs_live = tids_k[live], costs_k[live]

        # Admission cut: per target, admit FIFO while backlog stays
        # under the cap; the vectorised segment-cumsum form.
        if len(tids_live):
            order = np.argsort(tids_live, kind="stable")
            t_sorted, c_sorted = tids_live[order], costs_live[order]
            cum = np.cumsum(c_sorted)
            seg_start = np.flatnonzero(
                np.r_[True, t_sorted[1:] != t_sorted[:-1]]
            )
            seg_base = np.repeat(
                np.r_[0.0, cum[seg_start[1:] - 1]], np.diff(np.r_[seg_start, len(cum)])
            )
            within = cum - seg_base  # cumulative new work per target
            admit_sorted = backlog[t_sorted] + within <= qcap + 1e-9
            shed_tick = int((~admit_sorted).sum())
            shed_n += shed_tick
            adm_t = t_sorted[admit_sorted]
            adm_c = c_sorted[admit_sorted]
            np.add.at(backlog, adm_t, adm_c)
            for t, c in zip(adm_t.tolist(), adm_c.tolist()):
                pos_end[t] += c
                positions[t].append(pos_end[t])
        else:
            shed_tick = 0

        peak_backlog = max(peak_backlog, float(backlog.max()) if n_targets else 0.0)
        done = serve_one_tick()
        frame_rows.append(
            {
                "tick": k,
                "issued": len(tids_k),
                "denied": denied_tick,
                "shed": shed_tick,
                "served": done,
                "backlog_ms": round(float(backlog.sum()), 4),
            }
        )

    drain_ticks = 0
    while float(backlog.sum()) > 1e-9:
        done = serve_one_tick()
        drain_ticks += 1
        frame_rows.append(
            {
                "tick": horizon + drain_ticks - 1,
                "issued": 0,
                "denied": 0,
                "shed": 0,
                "served": done,
                "backlog_ms": round(float(backlog.sum()), 4),
            }
        )

    settled = issued == denied_n + shed_n + served_n
    report = {
        "scenario": spec.name,
        "population": base_sessions * scale,
        "scale": scale,
        "base_sessions": base_sessions,
        "ticks": horizon,
        "drain_ticks": drain_ticks,
        "issued": issued * scale,
        "denied": denied_n * scale,
        "shed": shed_n * scale,
        "served": served_n * scale,
        "settled": settled,
        "peak_target_backlog_ms": round(peak_backlog, 4),
        "frames": frame_rows,
    }
    digest = hashlib.sha256(
        json.dumps(report, sort_keys=True).encode()
    ).hexdigest()
    report["checksum"] = digest[:16]
    return report
