"""A hinted Create and a site of ``build`` cost the same at any size.

Section 5.2 asks that no component's work grow with the number of hosts;
these ratchets ask the same of the simulator's own work per operation.
Each counts Python ``call`` and builtin ``c_call`` events (as
``test_call_budget.py`` counts a warm Ping) at two sizes and requires
the counts equal:

* a ``Create`` hinted at a magistrate, when its class lists 8 and 1,024
  candidate magistrates (the hinted one last).  Membership was a list
  scan: one ``LOID.__eq__`` per candidate, 3.14 M calls over E9's
  1,024-site mitigated arm.
* one more site of ``LegionSystem.build``, added at 8 and at 1,024
  sites (1,076 calls a site, one host each).

Counts differ between interpreters, but their equality does not, so
this runs on any CPython.
"""

import sys

import pytest

from repro.naming.loid import LOID
from repro.system.legion import LegionSystem, SiteSpec
from repro.workloads.apps import CounterImpl

from tests.invariants import live_impl
from tests.perf.test_call_budget import count_calls

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython", reason="counts profiler events"
)


def calls_per_hinted_create(candidates: int) -> int:
    """Fewest calls of three Creates hinted at a magistrate that is the
    last of ``candidates`` on its class's list (the rest never answer)."""
    system = LegionSystem.build([SiteSpec("uva", hosts=2), SiteSpec("doe", hosts=1)], seed=0)
    cls = system.create_class("Hinted", factory=CounterImpl).loid
    hinted = system.magistrates["doe"].loid
    decoys = [
        LOID.for_instance(9_999, i, system.services.secret) for i in range(1, candidates)
    ]
    live_impl(system, cls).candidate_magistrates = [*decoys, hinted]
    system.create_instance(cls, magistrate=hinted)  # the first use builds the set

    def create():
        return system.create_instance(cls, magistrate=hinted)

    return min(count_calls(create)[1] for _ in range(3))


def calls_per_site(sites: int) -> int:
    """Calls ``build`` spends on one site more than ``sites`` sites."""

    def built(n: int) -> int:
        specs = [SiteSpec(f"site{i}", hosts=1) for i in range(n)]
        return count_calls(LegionSystem.build, specs)[1]

    return built(sites + 1) - built(sites)


def test_a_hinted_create_costs_the_same_at_8_and_1024_candidates():
    assert calls_per_hinted_create(8) == calls_per_hinted_create(1024)


def test_a_site_of_build_costs_the_same_at_8_and_1024_sites():
    calls_per_site(8)  # first-use allocations and imports are not a site's
    assert calls_per_site(8) == calls_per_site(1024)
