"""E2 -- object→Binding-Agent traffic stays bounded per agent (5.2.1).

Claim: "each Binding Agent can be set up to service a bounded number of
clients" -- because agents are added along with load, the *per-agent*
request count does not grow with system size, even though total binding
traffic does.

Method: sweep the number of sites (one Binding Agent per site, fixed
clients and objects per site).  Every client resolves fresh objects
through its site agent.  The table reports total agent requests and the
maximum seen by any single agent; the claim holds if the per-agent maximum
is flat (log-log slope ≈ 0) while the total grows linearly.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, uniform_sites
from repro.metrics.counters import ComponentKind
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl


def _run_scale(n_sites: int, clients_per_site: int, objects_per_site: int, seed: int):
    system = LegionSystem.build(uniform_sites(n_sites, hosts_per_site=2), seed=seed)
    cls = system.create_class("Counter", factory=CounterImpl)

    # Objects pinned to each site's magistrate so locality is real.
    objects_by_site = {}
    for spec in system.sites:
        magistrate = system.magistrates[spec.name].loid
        objects_by_site[spec.name] = [
            system.create_instance(cls.loid, magistrate=magistrate)
            for _ in range(objects_per_site)
        ]

    system.reset_measurements()

    # Fresh clients at every site resolve (cold caches → agent consulted)
    # all of their own site's objects.
    for spec in system.sites:
        for c in range(clients_per_site):
            client = system.new_client(f"e2-{spec.name}-{c}", site=spec.name)
            for binding in objects_by_site[spec.name]:
                system.call(binding.loid, "Ping", client=client)

    metrics = system.services.metrics
    total = metrics.totals_by_kind().get(ComponentKind.BINDING_AGENT, 0)
    per_agent_max = metrics.max_by_kind(ComponentKind.BINDING_AGENT)
    return total, per_agent_max


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Sweep site count; report total vs max-per-agent binding traffic."""
    recorder = SeriesRecorder(x_label="sites")
    result = ExperimentResult(
        experiment="E2",
        title="per-agent binding load stays bounded (5.2.1)",
        claim=(
            "as sites (and agents) grow with fixed clients/site, total agent "
            "traffic grows but the max load on any one agent stays flat"
        ),
        recorder=recorder,
    )
    sweep = [2, 4, 8] if quick else [2, 4, 8, 16, 32]
    clients_per_site = 2
    objects_per_site = 4 if quick else 8

    for n_sites in sweep:
        total, per_agent_max = _run_scale(
            n_sites, clients_per_site, objects_per_site, seed
        )
        recorder.add(n_sites, total_agent_requests=total, max_per_agent=per_agent_max)

    flat_slope = recorder.slope("max_per_agent", log_log=True)
    growth_slope = recorder.slope("total_agent_requests", log_log=True)
    result.check(
        "max per-agent load is flat in system size",
        abs(flat_slope) < 0.2,
        f"log-log slope {flat_slope:.3f}",
    )
    result.check(
        "total agent traffic grows with the system",
        growth_slope > 0.8,
        f"log-log slope {growth_slope:.3f}",
    )
    return result
