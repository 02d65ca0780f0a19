#!/usr/bin/env python
"""Wide-area binding at scale: caches, agents, and the combining tree.

Recreates the Section 5 story end to end on an eight-site testbed:

1. a locality-mixed workload (90% same-site accesses, the paper's first
   scalability assumption) runs against objects spread over all sites;
2. per-component request loads are printed — the "distributed systems
   principle" in numbers;
3. the same class-lookup burst is replayed against flat agents vs. a
   4-ary combining tree, showing LegionClass's load collapse (5.2.2);
4. a hot class is cloned and the creation load redistributes (5.2.2).

Run:  python examples/wide_area_binding.py
"""

from repro import LegionSystem, SiteSpec
from repro.binding.hierarchy import build_agent_tree
from repro.experiments.e3_combining_tree import _spawn_agent_on
from repro.metrics.counters import ComponentKind
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import LocalityMix, TrafficDriver

N_SITES = 8


def main() -> None:
    sites = [SiteSpec(f"site{i}", hosts=2) for i in range(N_SITES)]
    system = LegionSystem.build(sites, seed=55)
    cls = system.create_class("Counter", factory=CounterImpl)

    print(f"== {N_SITES} sites, {len(system.host_servers)} hosts, "
          f"{N_SITES} jurisdictions, {N_SITES} binding agents ==")

    # -- objects pinned per site; clients with 90% local traffic.
    targets_by_site = {}
    for spec in system.sites:
        magistrate = system.magistrates[spec.name].loid
        targets_by_site[spec.name] = [
            system.create_instance(cls.loid, magistrate=magistrate).loid
            for _ in range(4)
        ]
    clients, client_sites = [], {}
    for spec in system.sites:
        for i in range(2):
            client = system.new_client(f"{spec.name}-c{i}", site=spec.name)
            clients.append(client)
            client_sites[client.loid.identity] = spec.name
    mix = LocalityMix(
        targets_by_site, local_fraction=0.9,
        rng=system.services.rng.stream("example-mix"),
    )

    system.reset_measurements()
    driver = TrafficDriver(
        system.kernel,
        clients,
        choose_call=lambda c: (mix.choose(client_sites[c.loid.identity]), "Increment", (1,)),
        calls_per_client=25,
        think_time=2.0,
    )
    stats = system.kernel.run_until_complete(driver.start())
    print(f"\n== locality workload: {stats.calls_issued} calls, "
          f"{stats.success_rate:.0%} success ==")
    metrics = system.services.metrics
    print("   per-kind max request load (the bottleneck metric):")
    for kind in (
        ComponentKind.LEGION_CLASS,
        ComponentKind.CLASS_OBJECT,
        ComponentKind.BINDING_AGENT,
        ComponentKind.MAGISTRATE,
    ):
        print(f"     {kind.value:<15} max={metrics.max_by_kind(kind):>4}  "
              f"total={metrics.totals_by_kind().get(kind, 0):>5}")
    net = system.network.stats
    print("   traffic locality:", {c.value: n for c, n in net.by_class.items()})

    # -- flat agents vs combining tree for class lookups.
    print("\n== class-lookup burst: flat agents vs 4-ary combining tree ==")
    from repro.metrics.counters import ComponentId

    def legion_class_load_after_lookups(leaf_servers):
        system.reset_measurements()
        probe = system.new_client("probe")
        for leaf in leaf_servers:
            # cold leaf: ask it to resolve every site's first object class
            system.call(leaf.loid, "GetBinding", cls.loid, client=probe)
        return metrics.get(
            ComponentId(ComponentKind.LEGION_CLASS, "LegionClass")
        )

    flat = [_spawn_agent_on(system, None, f"flat{i}") for i in range(8)]
    flat_load = legion_class_load_after_lookups(flat)

    spawned = {}

    def spawn(parent, level, index):
        server = _spawn_agent_on(system, parent, f"tree-{level}-{index}")
        spawned[server.binding().address.primary()] = server
        return server.binding()

    tree = build_agent_tree(spawn, leaf_count=8, fanout=4)
    leaves = [spawned[b.address.primary()] for b in tree.leaves]
    tree_load = legion_class_load_after_lookups(leaves)
    print(f"   LegionClass requests — flat: {flat_load}, tree: {tree_load} "
          f"(tree depth {tree.depth}, {tree.agent_count} agents)")

    # -- cloning the hot class.
    print("\n== cloning the hot class (5.2.2) ==")
    pool = [system.call(cls.loid, "Clone") for _ in range(3)]
    family = [cls] + pool
    family_names = {str(b.loid) for b in family}
    # Warm every path first so the measured burst is pure creation load.
    for target in family:
        system.call(target.loid, "Create", {"no_delegate": True})
    system.reset_measurements()
    for i in range(24):
        target = family[i % len(family)]
        system.call(target.loid, "Create", {"no_delegate": True})
    loads = metrics.loads(ComponentKind.CLASS_OBJECT)
    busy = {k: v for k, v in sorted(loads.items()) if k in family_names}
    print(f"   24 creations over 1 original + {len(pool)} clones;")
    print(f"   per-family-member load: {busy}")
    print(f"   hottest family member: {max(busy.values())} (vs 24 without clones)")


if __name__ == "__main__":
    main()
