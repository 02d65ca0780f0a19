"""E3 -- a combining tree of Binding Agents flattens LegionClass load (5.2.2).

Claim: "by constructing a k-ary tree of Binding Agents, eliminating
traffic from 'leaf' Binding Agents to LegionClass, we can arbitrarily
reduce the load placed on LegionClass.  In essence, Binding Agents could
be organized to implement a software combining tree."

Method: N leaf agents must each resolve the bindings of M user class
objects from cold caches (class-location requests are exactly the traffic
that reaches LegionClass).  Two configurations:

* **flat**  -- every agent is a root: each one's misses hit LegionClass
  directly, so LegionClass serves Θ(N·M) requests;
* **tree**  -- the agents are the leaves of a k-ary combining tree: a
  miss climbs the tree and only the root's misses reach LegionClass, so
  LegionClass serves Θ(M) requests regardless of N.

The table sweeps N and reports LegionClass's measured request count under
both configurations.
"""

from __future__ import annotations

from typing import List, Optional

from repro.binding.agent import BindingAgentImpl
from repro.binding.hierarchy import build_agent_tree
from repro.experiments.common import ExperimentResult, populate, uniform_sites
from repro.metrics.counters import ComponentId, ComponentKind
from repro.metrics.recorder import SeriesRecorder
from repro.naming.binding import Binding
from repro.core.server import ObjectServer
from repro.security.environment import CallEnvironment
from repro.system.bootstrap import start_out_of_band
from repro.system.legion import LegionSystem


def _spawn_agent_on(system: LegionSystem, parent: Optional[Binding], label: str) -> ObjectServer:
    """Start an extra Binding Agent out-of-band (bring-up style)."""
    agent_class = system.standard_classes["StandardBindingAgent"]
    impl = BindingAgentImpl(parent=parent)
    loid = agent_class.impl._allocate_instance_loid()
    host = system.site_hosts[system.sites[0].name][0]
    server = start_out_of_band(
        system.services, loid, impl, host, ComponentKind.BINDING_AGENT, label, 4096
    )
    server.runtime.set_binding_agent(system.services.default_binding_agent)
    # Register with the class (the 4.2.1 contact-your-class step), so the
    # new agent is locatable through the normal binding mechanism.
    agent_class.impl.register_out_of_band(server.binding())
    return server


def _legion_class_load(
    system: LegionSystem, leaves: List[ObjectServer], class_loids
) -> int:
    """Make every leaf resolve every class binding; return LegionClass load."""
    system.reset_measurements()
    client = system.new_client("e3-driver")
    env = CallEnvironment.originating(client.loid)
    for leaf in leaves:
        for class_loid in class_loids:
            # Ask the leaf directly: GetBinding(class LOID).
            fut = system.spawn(
                client.runtime.call_address(
                    leaf.address, leaf.loid, "GetBinding", (class_loid,), env
                )
            )
            system.kernel.run_until_complete(fut)
    return system.services.metrics.get(
        ComponentId(ComponentKind.LEGION_CLASS, "LegionClass")
    )


def _measure(n_agents: int, n_classes: int, fanout: int, seed: int, traced: bool = False):
    """Fresh system; returns (flat load, tree load, tree config's spans).

    ``traced`` installs the causal tracer on the tree configuration; the
    returned spans cover exactly the measured load phase (the pre-load
    ``reset_measurements`` clears setup spans along with the counters)
    plus the per-component request counters they must reconcile with.
    """
    # -- flat: n independent root agents.
    system = LegionSystem.build(uniform_sites(2, hosts_per_site=2), seed=seed)
    classes = list(populate(system, n_classes, instances_per_class=0))
    flat_leaves = [
        _spawn_agent_on(system, None, f"flat{i}") for i in range(n_agents)
    ]
    flat_load = _legion_class_load(system, flat_leaves, classes)

    # -- tree: same leaf count, combining tree above them.
    system2 = LegionSystem.build(uniform_sites(2, hosts_per_site=2), seed=seed)
    classes2 = list(populate(system2, n_classes, instances_per_class=0))
    counter = [0]

    def spawn(parent: Optional[Binding], level: int, index: int) -> Binding:
        counter[0] += 1
        server = _spawn_agent_on(system2, parent, f"tree-l{level}-{index}")
        return server.binding()

    tree = build_agent_tree(spawn, leaf_count=n_agents, fanout=fanout)
    leaf_servers = [
        s
        for s in _servers_by_binding(system2, tree.leaves)
    ]
    tracer = system2.enable_tracing() if traced else None
    tree_load = _legion_class_load(system2, leaf_servers, classes2)
    spans = list(tracer.spans) if tracer is not None else None
    counts = system2.services.metrics.labelled_counts() if traced else None
    return flat_load, tree_load, spans, counts


def _servers_by_binding(system: LegionSystem, bindings: List[Binding]) -> List[ObjectServer]:
    """Map tree-leaf bindings back to their ObjectServers via the network."""
    wanted = {b.address.primary(): b for b in bindings}
    out = []
    for element, binding in wanted.items():
        endpoint = system.network._endpoints.get(element)
        if endpoint is None:
            raise RuntimeError(f"no endpoint for tree leaf {binding}")
        # The handler is ObjectServer.handle_message (a bound method).
        out.append(endpoint.handler.__self__)
    return out


def run(quick: bool = True, seed: int = 0, trace: Optional[str] = None) -> ExperimentResult:
    """Sweep leaf-agent count; compare flat vs tree LegionClass load.

    With ``trace``, the largest tree configuration runs under the causal
    tracer and the combining-tree *mechanism* is audited: every tree node
    hears from at most ``fanout`` distinct children (the structural fact
    behind the flattened load), and the span ledger reconciles with the
    request counters.
    """
    recorder = SeriesRecorder(x_label="agents")
    result = ExperimentResult(
        experiment="E3",
        title="combining tree flattens LegionClass load (5.2.2)",
        claim=(
            "flat agents hit LegionClass Θ(agents×classes) times; a k-ary "
            "combining tree reduces that to Θ(classes), independent of agents"
        ),
        recorder=recorder,
    )
    fanout = 4
    n_classes = 4 if quick else 8
    sweep = [2, 4, 8] if quick else [2, 4, 8, 16]

    traced_spans = traced_counts = None
    for n_agents in sweep:
        traced = trace is not None and n_agents == sweep[-1]
        flat_load, tree_load, spans, counts = _measure(
            n_agents, n_classes, fanout, seed, traced=traced
        )
        if traced:
            traced_spans, traced_counts = spans, counts
        recorder.add(n_agents, flat=flat_load, tree=tree_load)

    flat_slope = recorder.slope("flat", log_log=True)
    tree_slope = recorder.slope("tree", log_log=True)
    result.check(
        "flat config: LegionClass load grows ~linearly with agents",
        flat_slope > 0.7,
        f"log-log slope {flat_slope:.3f}",
    )
    result.check(
        "tree config: LegionClass load ~independent of agents",
        tree_slope < 0.3,
        f"log-log slope {tree_slope:.3f}",
    )
    final_flat = recorder.series("flat")[-1]
    final_tree = recorder.series("tree")[-1]
    result.check(
        "tree beats flat at the largest scale",
        final_tree < final_flat,
        f"{final_tree} < {final_flat}",
    )

    if traced_spans is not None:
        from repro.experiments.common import export_trace
        from repro.trace.audit import TraceAudit

        audit = TraceAudit(traced_spans)
        fan_in = audit.fan_in_bound(fanout, "binding-agent:tree-")
        result.check(
            "trace: every tree node's fan-in <= arity",
            fan_in.passed,
            fan_in.detail,
        )
        reconcile = audit.reconciles_with(traced_counts, "binding-agent:")
        result.check(
            "trace: span ledger reconciles with agent request counters",
            reconcile.passed,
            reconcile.detail,
        )

        path = export_trace(traced_spans, trace, "e3", seed)
        result.notes = f"trace (largest tree config): {path}"
    return result
