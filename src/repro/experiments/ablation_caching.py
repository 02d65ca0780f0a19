"""Ablation A2 -- how much of the design's scalability is the caches.

DESIGN.md calls out per-object binding caches as a load-bearing design
choice: Section 5.2.1's whole argument starts from "each Legion object
will maintain a cache of bindings".  This ablation sweeps the client
cache capacity from 1 (effectively no cache) upward and measures, for a
fixed steady-state workload, the client cache hit rate and the binding
traffic pushed onto agents.

Expected shape: agent traffic collapses once the cache covers the working
set, and is maximal with capacity 1 -- the quantitative version of "an
object's Binding Agent will only be consulted on a local cache miss".
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, uniform_sites
from repro.metrics.counters import ComponentKind
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import TrafficDriver, ZipfPopularity


def _run_capacity(capacity: int, seed: int, quick: bool):
    n_objects = 12 if quick else 24
    calls = 100 if quick else 250
    system = LegionSystem.build(uniform_sites(2, hosts_per_site=2), seed=seed)
    cls = system.create_class("Counter", factory=CounterImpl)
    loids = [system.create_instance(cls.loid).loid for _ in range(n_objects)]

    client = system.new_client("a2")
    client.runtime.cache.capacity = capacity
    zipf = ZipfPopularity(
        n_objects, s=0.9, rng=system.services.rng.numpy_stream("a2")
    )

    system.reset_measurements()
    client.runtime.cache.stats.reset()
    traffic = TrafficDriver(
        system.kernel,
        [client],
        choose_call=lambda _c: (loids[zipf.sample()], "Increment", (1,)),
        calls_per_client=calls,
        think_time=1.0,
    )
    stats = system.kernel.run_until_complete(traffic.start())
    assert stats.success_rate == 1.0
    agent_requests = system.services.metrics.totals_by_kind().get(
        ComponentKind.BINDING_AGENT, 0
    )
    return client.runtime.cache.stats.hit_rate, agent_requests


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Sweep client cache capacity; measure hit rate and agent traffic."""
    recorder = SeriesRecorder(x_label="cache_capacity")
    result = ExperimentResult(
        experiment="A2",
        title="ablation: the per-object binding cache (5.2.1)",
        claim=(
            "agent traffic is maximal with no effective cache and collapses "
            "once the cache covers the working set"
        ),
        recorder=recorder,
    )
    capacities = [1, 4, 16, 64]
    agent_loads = {}
    for capacity in capacities:
        hit_rate, agent_requests = _run_capacity(capacity, seed, quick)
        agent_loads[capacity] = agent_requests
        recorder.add(capacity, hit_rate=round(hit_rate, 3), agent_requests=agent_requests)

    result.check(
        "crippled cache pushes the most traffic onto agents",
        agent_loads[1] == max(agent_loads.values()),
        f"{agent_loads}",
    )
    result.check(
        "a working-set-sized cache cuts agent traffic by >= 3x",
        agent_loads[64] * 3 <= agent_loads[1],
        f"{agent_loads[64]} vs {agent_loads[1]}",
    )
    result.check(
        "hit rate increases monotonically with capacity",
        all(
            recorder.series("hit_rate")[i] <= recorder.series("hit_rate")[i + 1] + 1e-9
            for i in range(len(capacities) - 1)
        ),
    )
    return result
