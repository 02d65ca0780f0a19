"""Every name the ledger prints: workloads, metrics, units, directions, bounds.

This is the single list ``run.py`` checks against ``BENCHMARK.json`` before
any run, ``compare.py`` takes bounds and directions from, and the README
glossary is written from.  A name is made of ``[A-Za-z0-9_.-]`` only.
"""

from __future__ import annotations

import re
from typing import Dict, List, NamedTuple, Optional

from tracer import LAYERS

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


class Metric(NamedTuple):
    """One metric: unit, direction, and how two runs of it are compared.

    ``bound`` is the share of the base by which a host-time metric may
    worsen; ``None`` marks a count that must repeat exactly for a seed
    (compared with ``==``); per-layer host-time metrics carry no bound and
    are reported, not judged.
    """

    unit: str
    better: str
    bound: Optional[float] = None
    exact: bool = False


WORKLOADS: Dict[str, str] = {
    "warm_call": (
        "closed loop, 1 client, 64 warm bindings: the headline call path; "
        "simkernel+net+core do all the work, binding/jurisdiction/persistence none"
    ),
    "cold_bind": (
        "closed loop, 8 clients, Zipf 0.9 over 4000 objects overflowing client and "
        "agent caches: binding agents and class-object GetBinding reads carry load"
    ),
    "lifecycle_churn": (
        "closed loop, 1 client, create/deactivate/activate/move/delete cycles: "
        "magistrates, hosts, vaults and class-table writes carry load (Fig. 11)"
    ),
    "scenario_open": (
        "open loop in simulated time, 3 catalog scenarios stretched x40: many concurrent "
        "sessions and think timers give the kernel a deep heap; scenarios/workloads/MayI"
    ),
    "mega_dense": (
        "columnar frame of 1e6 ids, 500k calls per tick: the megascale kernels do "
        "everything, the rich path only serves escalations"
    ),
    "mega_sparse": (
        "same frame, 1000 calls per tick: the O(population) regime of BulkEngine.tick; "
        "a sparse-tick optimisation moves this and must leave mega_dense flat"
    ),
    "quick_sweep": (
        "run_many(all 22 experiments, quick, jobs=1): what a researcher runs; only "
        "workload where experiments/flow/health/faults/autoscale/replication carry load"
    ),
}

#: The ledger's nine end-to-end metrics (ISSUE 11).  A workload that does
#: not define one leaves it out.
END_TO_END: Dict[str, Metric] = {
    "ops_per_s": Metric("op/s", "higher", bound=0.10),
    "us_per_event": Metric("us/event", "lower", bound=0.10),
    "setup_s": Metric("s", "lower", bound=0.25),
    "peak_rss_mb": Metric("MB", "lower", bound=0.10),
    "events_per_op": Metric("count", "lower", exact=True),
    "msgs_per_op": Metric("count", "lower", exact=True),
    "sim_ms_per_op": Metric("sim_ms", "lower", exact=True),
    "sim_ms_p99": Metric("sim_ms", "lower", exact=True),
    "failed_share": Metric("ratio", "lower", exact=True),
}

#: What ``BENCHMARK.json`` may list as end-to-end: defined on all seven
#: workloads and never zero.  The other six are judged by the ledger itself
#: (exactly, against ``expected.json``) and ride in ``per_layer`` there.
#: The values are the driver's automatic-reject bounds.  ``ops_per_s`` is
#: wider there than in ``compare.py``'s table above: two ten-run sets taken
#: in different machine regimes differed by 13-15 % in calibrated median on
#: warm_call and cold_bind, and a verdict nobody reads must survive that,
#: whereas ``compare.py`` can answer ``unresolved``.
DRIVER_END_TO_END = {"ops_per_s": 0.25, "peak_rss_mb": 0.10, "setup_s": 0.25}


def _per_layer() -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    # (a) traced-run attribution.
    for layer in LAYERS:
        out[f"{layer}.pycalls_per_op"] = Metric("count", "lower", exact=True)
        out[f"{layer}.self_us_per_op"] = Metric("us", "lower")
    for name in ("py_builtins", "py_stdlib", "total"):
        out[f"{name}.pycalls_per_op"] = Metric("count", "lower", exact=True)
    out["harness.trace_overhead_x"] = Metric("x", "lower")
    # (b) boundary counts from the program's public counters.
    for name, better in (
        ("net.wan_msgs_per_op", "lower"),
        ("net.lan_msgs_per_op", "lower"),
        ("naming.client_cache_hit_rate", "higher"),
        ("binding.agent_requests_per_op", "lower"),
        ("binding.agent_cache_hit_rate", "higher"),
        ("core.class_requests_per_op", "lower"),
        ("core.legion_class_requests_per_op", "lower"),
        ("core.stale_per_op", "lower"),
        ("core.refreshes_per_op", "lower"),
        ("core.attempts_per_invocation", "lower"),
        ("jurisdiction.magistrate_requests_per_op", "lower"),
        ("hosts.host_requests_per_op", "lower"),
        ("persistence.opr_writes_per_op", "lower"),
        ("persistence.opr_reads_per_op", "lower"),
        ("security.denied_share", "lower"),
        ("flow.shed_share", "lower"),
        ("simkernel.peak_pending_events", "lower"),
        ("megascale.escalated_share", "lower"),
        ("megascale.promotions_per_tick", "lower"),
    ):
        unit = "ratio" if name.endswith(("_rate", "_share")) else "count"
        out[name] = Metric(unit, better, exact=True)
    # (c) direct calls into each layer's public functions.
    for name, unit in (
        ("simkernel.schedule_ns", "ns"),
        ("simkernel.spawn_ns", "ns"),
        ("simkernel.future_resume_ns", "ns"),
        ("simkernel.deep_heap_ns", "ns"),
        ("net.send_deliver_ns", "ns"),
        ("net.message_build_ns", "ns"),
        ("naming.cache_hit_ns", "ns"),
        ("naming.cache_insert_evict_ns", "ns"),
        ("naming.loid_hash_ns", "ns"),
        ("persistence.opr_roundtrip_us", "us"),
        ("metrics.incr_ns", "ns"),
        ("security.mayi_ns", "ns"),
        ("system.build_small_ms", "ms"),
        ("system.build_large_ms", "ms"),
        ("scenarios.compile_events_us_per_arrival", "us"),
        ("scenarios.compile_frames_us_per_arrival", "us"),
        ("megascale.extend_ns_per_obj", "ns"),
        ("megascale.tick_dense_ns_per_call", "ns"),
        ("megascale.tick_sparse_us_per_tick", "us"),
        ("megascale.promote_demote_us", "us"),
        ("trace.enabled_overhead_x", "x"),
        ("flow.admission_overhead_x", "x"),
        ("experiments.e14_wall_s", "s"),
        ("experiments.e15_wall_s", "s"),
        ("experiments.e17_wall_s", "s"),
        ("experiments.e18_wall_s", "s"),
        ("experiments.rest_wall_s", "s"),
        ("experiments.import_s", "s"),
        ("experiments.render_s", "s"),
    ):
        out[name] = Metric(unit, "lower")
    # (d) the load generator itself.
    out["load.generator_share"] = Metric("ratio", "lower")
    out["load.machine_speed_x"] = Metric("x", "higher")
    out["load.raw_ops_per_s"] = Metric("op/s", "higher")
    out["load.batches"] = Metric("count", "higher")
    out["load.batch_us_p50"] = Metric("us", "lower")
    out["load.batch_us_p95"] = Metric("us", "lower")
    return out


PER_LAYER: Dict[str, Metric] = _per_layer()


def driver_per_layer() -> List[str]:
    """``BENCHMARK.json``'s per-layer list: ours plus the six end-to-end
    metrics its end-to-end rules cannot hold (see DRIVER_END_TO_END)."""
    moved = [name for name in END_TO_END if name not in DRIVER_END_TO_END]
    return list(PER_LAYER) + moved


def lookup(name: str) -> Metric:
    """The catalog entry for any metric name."""
    return END_TO_END.get(name) or PER_LAYER[name]


def check_names(benchmark: dict) -> List[str]:
    """Mismatches between this catalog and a loaded ``BENCHMARK.json``."""
    problems: List[str] = []

    def same(what: str, ours: List[str], theirs: List[str]) -> None:
        if sorted(ours) != sorted(theirs):
            missing = sorted(set(ours) - set(theirs))
            extra = sorted(set(theirs) - set(ours))
            problems.append(f"{what}: missing {missing} unexpected {extra}")

    same("workloads", list(WORKLOADS), [w["name"] for w in benchmark["workloads"]])
    same(
        "end_to_end",
        list(DRIVER_END_TO_END),
        [m["name"] for m in benchmark["end_to_end"]],
    )
    same("per_layer", driver_per_layer(), [m["name"] for m in benchmark["per_layer"]])
    for name in list(WORKLOADS) + list(END_TO_END) + list(PER_LAYER):
        if not NAME_RE.match(name):
            problems.append(f"name {name!r} is not made of [A-Za-z0-9_.-]")
    for entry in benchmark["end_to_end"] + benchmark["per_layer"]:
        ours = END_TO_END.get(entry["name"]) or PER_LAYER.get(entry["name"])
        if ours is None:
            continue  # already reported as unexpected above
        if (entry["unit"], entry["better"]) != (ours.unit, ours.better):
            problems.append(f"{entry['name']}: unit/direction differs from the catalog")
        want = DRIVER_END_TO_END.get(entry["name"])
        if "bound" in entry and entry["bound"] != want:
            problems.append(f"{entry['name']}: bound {entry['bound']} != {want}")
    return problems
