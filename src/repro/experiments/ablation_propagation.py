"""Ablation A1 -- explicit invalidation propagation (section 4.1.4).

The paper's optional optimisation: "Some classes may even attempt to
reduce the number of stale bindings by explicitly propagating news of an
object's migration or removal."  This ablation measures what that buys.

The benefit is *cross-agent*: after a migration, the first stale caller's
repair re-activates the object and -- with propagation -- the class pushes
the fresh binding to every subscribed agent, so stale callers arriving
through *other* agents are repaired from their agent's cache instead of
triggering another walk to the class object.

Method (deterministic, K rounds): an object is deactivated each round;
then a site-A client touches it (pays the unavoidable reactivation walk),
then a site-B client touches it.  Measured: site-B's agent→class
escalations across rounds, with and without the agents subscribed.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, uniform_sites
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl


def _run(propagate: bool, rounds: int, seed: int):
    system = LegionSystem.build(uniform_sites(2, hosts_per_site=2), seed=seed)
    cls = system.create_class("Counter", factory=CounterImpl)
    site_a, site_b = system.sites[0].name, system.sites[1].name
    target = system.call(
        cls.loid, "Create", {"magistrate": system.magistrates[site_a].loid}
    )
    if propagate:
        for agent in system.agents.values():
            system.call(cls.loid, "SubscribeInvalidations", agent.binding())

    client_a = system.new_client("a1-a", site=site_a)
    client_b = system.new_client("a1-b", site=site_b)
    # Warm both clients and both agents.
    system.call(target.loid, "Ping", client=client_a)
    system.call(target.loid, "Ping", client=client_b)

    agent_b = system.agents[site_b]
    agent_b.impl.agent_stats.reset()
    magistrate = system.call(cls.loid, "GetRow", target.loid).current_magistrates[0]

    for _round in range(rounds):
        system.call(magistrate, "Deactivate", target.loid)
        # A's touch pays the unavoidable reactivation walk...
        system.call(target.loid, "Increment", 1, client=client_a)
        # ...then B's touch: repaired from agent B's cache iff propagation
        # delivered the fresh binding.
        system.call(target.loid, "Increment", 1, client=client_b)

    return agent_b.impl.agent_stats.class_escalations


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Compare site-B escalations with and without propagation."""
    rounds = 6 if quick else 20
    recorder = SeriesRecorder(x_label="config")
    result = ExperimentResult(
        experiment="A1",
        title="ablation: explicit invalidation propagation (4.1.4)",
        claim=(
            "propagating migration news lets the second site's stale "
            "callers be repaired from their agent's cache, eliminating its "
            "agent-to-class escalations"
        ),
        recorder=recorder,
    )
    base = _run(False, rounds, seed)
    prop = _run(True, rounds, seed)
    recorder.add(0, agent_b_class_escalations=base)
    recorder.add(1, agent_b_class_escalations=prop)

    result.check(
        f"without propagation, agent B escalates every round ({rounds})",
        base >= rounds,
        f"{base} escalations",
    )
    result.check(
        "with propagation, agent B never escalates",
        prop == 0,
        f"{prop} escalations",
    )
    result.notes = (
        "the first caller's walk is unavoidable in both configs (it is "
        "what re-activates the object); the ablation isolates the second "
        "agent's repairs."
    )
    return result
