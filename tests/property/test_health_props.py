"""Property-based tests over the band machine's transition invariants.

Hypothesis sweeps random evidence schedules (per-tick signal levels);
whatever the weather, the machine must uphold the archon72 contract:

* **never skips a band**: every transition moves exactly one step;
* **dwell respected**: consecutive degrades are at least ``DEGRADE_DWELL``
  apart, recoveries at least ``RECOVER_DWELL`` after entering the band;
* **no oscillation**: alternating hot/calm evidence faster than the
  recovery dwell never produces a recover transition -- hysteresis
  ratchets the band at its worst level instead of flapping;
* **recovery monotone**: once evidence goes calm for good, the band walks
  monotonically back to Stable and stays there.
"""

from __future__ import annotations

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.health.bands import DEGRADE_DWELL, RECOVER_DWELL, Band, BandMachine


def ev(shed_rate: float):
    """Single-signal evidence: shed_rate carries the whole schedule."""
    return SimpleNamespace(
        shed_rate=shed_rate,
        retry_denied_rate=0.0,
        loss_backlog=0,
        under_replicated=0,
        queue_depth=0,
    )


#: Representative signal levels: calm, the hysteresis dead zone, and one
#: level per severity rung of the default shed ladder.
LEVELS = st.sampled_from([0.0, 0.2, 0.5, 1.0, 5.0, 10.0])
SCHEDULES = st.lists(LEVELS, min_size=1, max_size=60)
TICK = 10.0


def drive(schedule):
    """Run one schedule; returns (machine, transitions with timestamps)."""
    machine = BandMachine()
    transitions = []
    for tick, level in enumerate(schedule):
        now = tick * TICK
        transition = machine.step(ev(level), now)
        if transition is not None:
            transitions.append(transition)
    return machine, transitions


@settings(max_examples=200)
@given(schedule=SCHEDULES)
def test_never_skips_a_band(schedule):
    machine, transitions = drive(schedule)
    band = Band.STABLE
    for transition in transitions:
        assert transition.from_band is band
        assert abs(transition.to_band - transition.from_band) == 1
        band = transition.to_band
    assert machine.band is band


@settings(max_examples=200)
@given(schedule=SCHEDULES)
def test_dwell_times_are_respected(schedule):
    _machine, transitions = drive(schedule)
    entered = 0.0
    for transition in transitions:
        if transition.direction == "degrade":
            # The first fall from Stable is immediate by design; every
            # further fall waits out the dwell in the band it leaves.
            if transition.from_band is not Band.STABLE:
                assert transition.time - entered >= DEGRADE_DWELL
        else:
            assert transition.time - entered >= RECOVER_DWELL
        entered = transition.time


@settings(max_examples=100)
@given(
    hot=st.sampled_from([0.5, 1.0, 5.0, 10.0]),
    period=st.integers(min_value=1, max_value=5),
    cycles=st.integers(min_value=2, max_value=12),
)
def test_alternating_evidence_never_recovers(hot, period, cycles):
    # Hot/calm alternation with calm stretches shorter than the recovery
    # dwell: the band may degrade, must never recover -- no oscillation.
    assert 5 * TICK < RECOVER_DWELL  # calm stretches: period * TICK <= 50
    schedule = ([hot] * period + [0.0] * period) * cycles
    _machine, transitions = drive(schedule)
    assert all(t.direction == "degrade" for t in transitions)


@settings(max_examples=100)
@given(prefix=SCHEDULES)
def test_recovery_is_monotone_once_calm(prefix):
    # Any stormy prefix, then calm forever: from the first recovery on,
    # the band only rises, reaches Stable, and stays there.
    calm_ticks = 200
    schedule = prefix + [0.0] * calm_ticks
    machine, transitions = drive(schedule)
    start = len(prefix) * TICK
    tail = [t for t in transitions if t.time >= start]
    recovering = False
    for transition in tail:
        if transition.direction == "recover":
            recovering = True
        elif recovering:
            raise AssertionError(
                f"degrade after recovery began: {transition}"
            )
    assert machine.band is Band.STABLE
