"""Ablations A3 and A4 -- binding TTLs and the locality assumption.

**A3 (binding TTL).**  Bindings carry "a field that specifies the time
that the binding becomes invalid" (section 3.5), which "may be set to some
value that indicates that the binding will never become explicitly
invalid".  The design choice: eager expiry (short TTL) trades refresh
traffic for fewer stale encounters; lazy expiry (no TTL) relies purely on
delivery-failure detection.  We sweep the class's handed-out TTL under a
*static* workload, where every expiry is pure overhead -- measuring the
cost side of the trade.

**A4 (locality).**  Section 5.2's first assumption: "most accesses will be
local".  We sweep the fraction of same-site accesses and measure wide-area
message share -- quantifying how much of the system's cheapness the
assumption is carrying.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, uniform_sites
from repro.metrics.recorder import SeriesRecorder
from repro.net.latency import LinkClass
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl
from repro.workloads.generators import LocalityMix, TrafficDriver


def _run_ttl(ttl, seed: int, quick: bool):
    calls = 40 if quick else 120
    system = LegionSystem.build(
        uniform_sites(2, hosts_per_site=2), seed=seed, binding_ttl=ttl
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    target = system.create_instance(cls.loid)
    client = system.new_client("a3")
    system.call(target.loid, "Ping", client=client)  # warm
    system.reset_measurements()
    client.runtime.stats.reset()
    client.runtime.cache.stats.reset()
    traffic = TrafficDriver(
        system.kernel,
        [client],
        choose_call=lambda _c: (target.loid, "Increment", (1,)),
        calls_per_client=calls,
        think_time=20.0,  # spread over time so TTLs actually expire
    )
    stats = system.kernel.run_until_complete(traffic.start())
    assert stats.success_rate == 1.0
    expired = client.runtime.cache.stats.expired
    agent_lookups = client.runtime.stats.agent_lookups
    return expired, agent_lookups


def run_ttl(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """A3: refresh overhead vs TTL under a static (no-churn) workload."""
    recorder = SeriesRecorder(x_label="ttl_ms")
    result = ExperimentResult(
        experiment="A3",
        title="ablation: binding TTLs (3.5)",
        claim=(
            "short TTLs buy nothing under a static workload and cost "
            "re-resolutions; the paper's never-expires default is free"
        ),
        recorder=recorder,
    )
    loads = {}
    for ttl in (50.0, 400.0, None):
        expired, agent_lookups = _run_ttl(ttl, seed, quick)
        label = 0 if ttl is None else ttl
        loads[label] = agent_lookups
        recorder.add(label, expired=expired, agent_lookups=agent_lookups)
    result.check(
        "never-expires does zero re-resolution in steady state",
        loads[0] == 0,
        f"{loads[0]} lookups",
    )
    result.check(
        "shorter TTLs cost strictly more re-resolutions",
        loads[50.0] > loads[400.0] > loads[0],
        f"{loads}",
    )
    result.notes = "x = 0 encodes the never-expires default."
    return result


def _run_locality(local_fraction: float, seed: int, quick: bool):
    calls = 20 if quick else 60
    system = LegionSystem.build(uniform_sites(4, hosts_per_site=2), seed=seed)
    cls = system.create_class("Counter", factory=CounterImpl)
    targets_by_site = {}
    for spec in system.sites:
        magistrate = system.magistrates[spec.name].loid
        targets_by_site[spec.name] = [
            system.create_instance(cls.loid, magistrate=magistrate).loid
            for _ in range(3)
        ]
    clients, sites = [], {}
    for spec in system.sites:
        client = system.new_client(f"a4-{spec.name}", site=spec.name)
        clients.append(client)
        sites[client.loid.identity] = spec.name
    mix = LocalityMix(
        targets_by_site, local_fraction, system.services.rng.stream("a4")
    )
    # Warm-up so measurement is steady-state data traffic, not cache fill.
    for client in clients:
        for pool in targets_by_site.values():
            for loid in pool:
                system.call(loid, "Ping", client=client)
    system.reset_measurements()
    traffic = TrafficDriver(
        system.kernel,
        clients,
        choose_call=lambda c: (mix.choose(sites[c.loid.identity]), "Increment", (1,)),
        calls_per_client=calls,
        think_time=1.0,
    )
    stats = system.kernel.run_until_complete(traffic.start())
    assert stats.success_rate == 1.0
    by_class = system.network.stats.by_class
    total = sum(by_class.values())
    return by_class[LinkClass.WIDE_AREA] / total if total else 0.0


def run_locality(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """A4: wide-area traffic share vs the locality assumption."""
    recorder = SeriesRecorder(x_label="local_fraction")
    result = ExperimentResult(
        experiment="A4",
        title="ablation: the locality assumption (5.2)",
        claim=(
            "wide-area traffic share falls monotonically as accesses "
            "localise; at 100% locality it vanishes"
        ),
        recorder=recorder,
    )
    shares = {}
    for fraction in (0.0, 0.5, 0.9, 1.0):
        share = _run_locality(fraction, seed, quick)
        shares[fraction] = share
        recorder.add(fraction, wan_share=round(share, 3))
    result.check(
        "wan share decreases monotonically with locality",
        shares[0.0] > shares[0.5] > shares[0.9] >= shares[1.0],
        f"{ {k: round(v, 3) for k, v in shares.items()} }",
    )
    result.check(
        "full locality eliminates wide-area data traffic",
        shares[1.0] == 0.0,
        f"{shares[1.0]:.3f}",
    )
    return result
