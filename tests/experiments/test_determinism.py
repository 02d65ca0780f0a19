"""Determinism regression: same (experiment, quick, seed) => same universe.

The fast-path kernel (tuple heap + resume trampoline) is only admissible
because it preserves event order bit-for-bit; these tests pin that down
end-to-end through real experiments.  E1 exercises the binding walk, E9
builds and drives many systems of different sizes.
"""

import pytest

from repro.experiments.runner import RUNNERS


@pytest.mark.parametrize("name", ["e1", "e9"])
def test_same_seed_same_universe(name):
    first = RUNNERS[name].run(quick=True, seed=0)
    second = RUNNERS[name].run(quick=True, seed=0)
    assert all(c.passed for c in first.checks) and all(c.passed for c in second.checks)
    # Claim tables and check details are identical text.
    assert first.render() == second.render()
    # Kernel fingerprints: identical final clocks and event counts.
    assert first.sim_clock is not None and first.sim_events is not None
    assert first.sim_clock == second.sim_clock
    assert first.sim_events == second.sim_events


def test_different_seed_different_universe():
    base = RUNNERS["e9"].run(quick=True, seed=0)
    other = RUNNERS["e9"].run(quick=True, seed=1)
    # Claims hold either way; the realized universe differs.
    assert all(c.passed for c in base.checks) and all(c.passed for c in other.checks)
    assert (base.sim_clock, base.sim_events) != (other.sim_clock, other.sim_events)
