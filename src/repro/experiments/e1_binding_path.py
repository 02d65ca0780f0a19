"""E1 -- the binding walk of Figs. 13 and 17, and its cache behaviour.

Claim (sections 4.1.2-4.1.3): a reference to a LOID resolves through
(at most) client cache → Binding Agent → LegionClass → responsible class →
Magistrate → Host, with every tier caching the result; a *warm* call needs
no external objects at all (one request/reply pair), and referring to an
Inert object's LOID transparently activates it.

The table reports the number of network messages per call in four
states of the world:

* ``cold``           -- fresh client, agent cache empty for this object;
* ``agent_warm``     -- fresh client, agent already knows the binding;
* ``client_warm``    -- same client calls again (its own cache hits);
* ``inert``          -- object deactivated first (activate-on-reference).
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.common import (
    ExperimentResult,
    count_messages,
    export_trace,
    trace_recorder,
    uniform_sites,
)
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl


def run(quick: bool = True, seed: int = 0, trace: Optional[str] = None) -> ExperimentResult:
    """Run E1; ``quick`` has no effect (the experiment is already small).

    With ``trace`` (an output directory), the four phases run under the
    causal tracer and the claimed walk shapes are audited *structurally*:
    the cold/inert walks stay within the paper's tier bound and the
    client-warm call is exactly one request hop.
    """
    recorder = SeriesRecorder(x_label="step")
    result = ExperimentResult(
        experiment="E1",
        title="binding resolution path (Figs. 13/17)",
        claim=(
            "cold lookups traverse agent→class (→magistrate→host for Inert "
            "objects); caches shorten later lookups to a bare request/reply"
        ),
        recorder=recorder,
    )

    system = LegionSystem.build(uniform_sites(2, hosts_per_site=2), seed=seed)
    cls = system.create_class("Counter", factory=CounterImpl)
    target = system.create_instance(cls.loid, context_name="e1/target")
    loid = target.loid
    tracer = trace_recorder(system, trace)

    # -- cold: a brand-new client (empty cache; the agent is cold for this
    #    object too, since nobody has resolved it yet).
    cold_client = system.new_client("e1-cold")
    _, cold_msgs = count_messages(
        system, lambda: system.call(loid, "Ping", client=cold_client)
    )
    cold_spans = len(tracer.spans) if tracer else 0

    # -- agent-warm: another fresh client; the site agent now has the
    #    binding, so the walk stops at the agent.
    warm_agent_client = system.new_client("e1-agent-warm")
    _, agent_warm_msgs = count_messages(
        system, lambda: system.call(loid, "Ping", client=warm_agent_client)
    )
    agent_warm_spans = len(tracer.spans) if tracer else 0

    # -- client-warm: the same client again; its own cache hits.
    _, client_warm_msgs = count_messages(
        system, lambda: system.call(loid, "Ping", client=warm_agent_client)
    )
    client_warm_spans = len(tracer.spans) if tracer else 0

    # -- inert: deactivate, then reference through a fresh client; the
    #    class must consult the magistrate, which activates the object.
    row = system.call(cls.loid, "GetRow", loid)
    magistrate = row.current_magistrates[0]
    system.call(magistrate, "Deactivate", loid)
    inert_client = system.new_client("e1-inert")
    inert_start = len(tracer.spans) if tracer else 0
    _, inert_msgs = count_messages(
        system, lambda: system.call(loid, "Ping", client=inert_client)
    )

    recorder.add(1, cold=cold_msgs)
    recorder.add(2, agent_warm=agent_warm_msgs)
    recorder.add(3, client_warm=client_warm_msgs)
    recorder.add(4, inert=inert_msgs)

    result.check(
        "client-warm call is a bare request/reply",
        client_warm_msgs == 2,
        f"{client_warm_msgs} messages",
    )
    result.check(
        "agent cache shortens the walk",
        agent_warm_msgs < cold_msgs,
        f"{agent_warm_msgs} < {cold_msgs}",
    )
    result.check(
        "activate-on-reference costs the longest walk",
        inert_msgs > agent_warm_msgs,
        f"{inert_msgs} > {agent_warm_msgs}",
    )
    result.check(
        "referencing an Inert object activated it",
        system.call(loid, "Get") == 0,
        "state reachable again",
    )
    result.notes = (
        "cold walk: client→agent→LegionClass (locate class)→class→reply "
        "chain; inert adds class→magistrate→host activation messages."
    )

    if tracer is not None:
        from repro.trace.audit import TraceAudit

        # The paper's maximum tier chain: client → Binding Agent →
        # LegionClass → responsible class → Magistrate → Host (Fig. 13);
        # six nested request hops bound every walk, warm or not.
        cold = TraceAudit(tracer.spans[:cold_spans]).hop_bound(6)
        result.check(
            "trace: cold walk within the Fig. 13 tier bound",
            cold.passed,
            cold.detail,
        )
        warm = TraceAudit(
            tracer.spans[agent_warm_spans:client_warm_spans]
        ).exact_depth(1)
        result.check(
            "trace: client-warm call is exactly one request hop",
            warm.passed,
            warm.detail,
        )
        inert_slice = tracer.spans[inert_start:]
        inert = TraceAudit(inert_slice).hop_bound(6)
        result.check(
            "trace: activate-on-reference stays within the tier bound",
            inert.passed,
            inert.detail,
        )
        result.check(
            "trace: the inert walk reached a host Activate upcall",
            any(s.kind == "activate" for s in inert_slice),
            f"{sum(1 for s in inert_slice if s.kind == 'activate')} activation span(s)",
        )
        path = export_trace(tracer, trace, "e1", seed)
        result.notes += f"\ntrace: {path}"

    result.sim_clock = system.kernel.now
    result.sim_events = system.kernel.events_executed
    return result
