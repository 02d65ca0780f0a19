"""The call path: one invoke body and one request dispatch for every
configuration (plain, traced, flow-controlled).

What a configuration *adds* -- spans, flow metadata -- takes effect on
the very next call, with no rebuild step; what it must never *change* is
the books: the same calls cost the same cache lookups,
runtime counters, messages, kernel events and simulated time whether or
not a tracer or a FlowConfig is installed.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import uniform_sites
from repro.flow.config import FlowConfig
from repro.naming.binding import Binding
from repro.net.address import ObjectAddress
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl


def build_system(flow=None, seed=21, instances=1):
    system = LegionSystem.build(
        uniform_sites(2, hosts_per_site=2), seed=seed, flow=flow
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    loids = [system.create_instance(cls.loid).loid for _ in range(instances)]
    return system, loids


def server_of(system, loid):
    """The live ObjectServer behind ``loid`` (via its registered endpoint)."""
    binding = system.console.runtime.lookup_binding(loid)
    element = binding.address.elements[0]
    return system.network._endpoints[element].handler.__self__


def poison(system, runtime, loid):
    """Replace ``runtime``'s cached binding of ``loid`` with a dead address,
    so the next call's first attempt bounces (section 4.1.4)."""
    dead = system.network.allocate_element(host=1)
    runtime.cache.insert(Binding(loid, ObjectAddress.single(dead)))


# ------------------------------------------------ what a configuration adds


def test_tracing_toggles_take_effect_on_the_next_call():
    system, (loid,) = build_system()
    assert system.call(loid, "Ping") == "pong"
    caller = str(system.console.component)
    callee = str(server_of(system, loid).component)

    recorder = system.enable_tracing()
    assert system.call(loid, "Ping") == "pong"
    recorded = {(s.kind, s.component) for s in recorder.spans}
    assert {("invoke", caller), ("request", caller), ("handle", callee)} <= recorded
    assert all(s.end is not None for s in recorder.spans)

    system.disable_tracing()
    count = len(recorder.spans)
    assert system.call(loid, "Ping") == "pong"
    assert len(recorder.spans) == count


# ------------------------------------------- what no configuration may change


@pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
@pytest.mark.parametrize(
    "stale_first_attempt, expected",
    [
        (False, ([2, 4, 6, 8, 10, 10], (9, 9, 11, 11, 0, 0), 106, 1128.9, 203)),
        # One stale detection, one refresh, one extra attempt.
        (True, ([2, 4, 6, 8, 10, 10], (9, 10, 13, 12, 1, 1), 109, 1129.1, 210)),
    ],
    ids=["warm", "stale-first-attempt"],
)
def test_a_seeded_run_books_exactly_this(traced, stale_first_attempt, expected):
    """The figures the flat fast path and the general retry loop both
    produced before they were folded into one body."""
    system, (loid,) = build_system()
    runtime = system.console.runtime
    system.call(loid, "Ping")  # warm the binding cache
    if stale_first_attempt:
        poison(system, runtime, loid)
    if traced:
        system.enable_tracing()
    values = [system.call(loid, "Increment", 2) for _ in range(5)]
    values.append(system.call(loid, "Get"))
    stats = runtime.stats
    assert (
        values,
        (stats.invocations, stats.attempts, stats.requests_sent,
         stats.replies_received, stats.refreshes, stats.stale_detected),
        system.network.stats.messages_sent,
        system.kernel.now,
        system.kernel.events_executed,
    ) == expected


def _cold_warm_stale(config: str):
    """8 cold calls, 8 warm ones and one whose first attempt is stale, from
    a fresh client; returns every observable a configuration could skew."""
    flow = FlowConfig(admit_kinds=frozenset()) if config == "flow" else None
    system, loids = build_system(flow=flow, instances=8)
    client = system.new_client("parity")
    runtime = client.runtime
    if config in ("traced", "toggled"):
        system.enable_tracing()
    values = [system.call(loid, "Increment", 3, client=client) for loid in loids]
    if config == "toggled":
        system.disable_tracing()
    values += [system.call(loid, "Get", client=client) for loid in loids]
    poison(system, runtime, loids[0])
    values.append(system.call(loids[0], "Increment", 1, client=client))
    return (
        values,
        runtime.cache.stats,
        runtime.stats,
        system.network.stats.messages_sent,
        system.kernel.now,
        system.kernel.events_executed,
    )


@pytest.mark.parametrize("config", ["traced", "toggled", "flow"])
def test_a_tracer_or_a_flow_config_leaves_the_books_alone(config):
    plain = _cold_warm_stale("plain")
    # A miss probes the cache twice (invoke, then resolve) and a hit once,
    # in every configuration -- the figure the ledger's digests pin.
    cache = plain[1]
    assert (cache.lookups, cache.hits, cache.misses) == (25, 9, 16)
    assert plain[2].stale_detected == plain[2].refreshes == 1
    assert _cold_warm_stale(config) == plain
