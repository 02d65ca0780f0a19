"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.core.context import SystemServices
from repro.core.relations import RelationGraph
from repro.metrics.counters import MetricsRegistry
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.simkernel.kernel import SimKernel
from repro.simkernel.rng import RngStreams
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

# One Hypothesis profile for the whole suite.  ``derandomize`` derives each
# test's examples from the test itself instead of a per-run seed, so every
# ``@given`` test is a pure function of the tree like the rest of tier-1;
# ``deadline=None`` because an example builds a whole simulated system and
# its wall time says nothing about correctness.
settings.register_profile("repro", derandomize=True, deadline=None)
settings.load_profile("repro")


@pytest.fixture
def kernel() -> SimKernel:
    """A fresh simulation kernel."""
    return SimKernel()


@pytest.fixture
def services(kernel) -> SystemServices:
    """Bare SystemServices with a uniform-latency network (no Legion)."""
    rng = RngStreams(7)
    latency = LatencyModel.uniform(1.0)
    network = Network(kernel, latency, rng=rng.stream("net"))
    return SystemServices(
        kernel=kernel,
        network=network,
        rng=rng,
        metrics=MetricsRegistry(),
        relations=RelationGraph(),
    )


@pytest.fixture(scope="module")
def legion():
    """A module-shared 2-site Legion system with a Counter class.

    Tests that mutate global state (delete core objects, partition the
    network without healing, ...) must build their own system instead.
    """
    system = LegionSystem.build(
        [SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)], seed=11
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    return system, cls


@pytest.fixture
def fresh_legion():
    """A private 2-site system for mutating tests."""
    system = LegionSystem.build(
        [SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=2)], seed=13
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    return system, cls
