"""The five-band machine: threshold ladder, one-step moves, dwell, hysteresis."""

from __future__ import annotations

from types import SimpleNamespace

from repro.health.bands import (
    DEGRADE_DWELL,
    LADDER,
    RECOVER_DWELL,
    RECOVER_FRACTION,
    SIGNALS,
    THRESHOLDS,
    Band,
    BandMachine,
    breaches,
    reasons_at,
    severity,
)


def ev(**signals):
    """Evidence with every signal zero except the given overrides."""
    base = {attr: 0 for _name, attr in SIGNALS}
    base.update(signals)
    return SimpleNamespace(**base)


CALM = ev()


class TestBand:
    def test_ordered_by_severity(self):
        assert (
            Band.STABLE
            < Band.STRAINED
            < Band.ERODING
            < Band.COMPROMISED
            < Band.FAILED
        )

    def test_labels_and_descriptions(self):
        for band in Band:
            assert band.label == band.name.lower()
            assert band.description


class TestBandRules:
    def test_ladder_must_have_one_rung_per_degraded_band(self):
        assert len(LADDER) == len(Band) - 1

    def test_ladder_must_strictly_increase(self):
        assert all(b > a for a, b in zip(LADDER, LADDER[1:], strict=False))

    def test_recover_fraction_bounds(self):
        assert 0.0 < RECOVER_FRACTION <= 1.0

    def test_thresholds_must_be_positive(self):
        assert sorted(THRESHOLDS) == [name for name, _attr in SIGNALS]
        assert all(value > 0 for value in THRESHOLDS.values())

    def test_severity_climbs_the_ladder(self):
        # Base shed threshold 0.3; rungs at 0.3, 0.9, 2.7, 8.1.
        assert severity(ev(shed_rate=0.2)) is Band.STABLE
        assert severity(ev(shed_rate=0.4)) is Band.STRAINED
        assert severity(ev(shed_rate=1.0)) is Band.ERODING
        assert severity(ev(shed_rate=3.0)) is Band.COMPROMISED
        assert severity(ev(shed_rate=10.0)) is Band.FAILED

    def test_breach_is_strictly_above_threshold(self):
        assert breaches(ev(loss_backlog=2)) == []
        assert breaches(ev(loss_backlog=3)) == [("loss_backlog", 1)]

    def test_severity_is_worst_signal(self):
        evidence = ev(shed_rate=0.4, queue_depth=100)  # sev 1 and sev 2
        assert severity(evidence) is Band.ERODING

    def test_scale_tightens_thresholds(self):
        # 0.2 < 0.3 but above the half-scaled threshold 0.15.
        evidence = ev(shed_rate=0.2)
        assert severity(evidence) is Band.STABLE
        assert severity(evidence, scale=0.5) is Band.STRAINED

    def test_reasons_are_sorted_signal_names(self):
        evidence = ev(shed_rate=10.0, loss_backlog=100, queue_depth=1)
        assert reasons_at(evidence, Band.FAILED) == [
            "loss_backlog",
            "shed_rate",
        ]


HOT = ev(shed_rate=100.0)  # indicates Failed outright


class TestBandMachine:
    def test_dwells_must_be_non_negative(self):
        assert DEGRADE_DWELL >= 0 and RECOVER_DWELL >= 0

    def test_calm_evidence_holds_stable(self):
        machine = BandMachine()
        assert machine.step(CALM, 10.0) is None
        assert machine.band is Band.STABLE

    def test_first_degrade_from_stable_is_immediate(self):
        machine = BandMachine()
        transition = machine.step(ev(shed_rate=0.4), 0.0)
        assert transition is not None
        assert (transition.from_band, transition.to_band) == (
            Band.STABLE,
            Band.STRAINED,
        )
        assert transition.direction == "degrade"
        assert transition.reason == "shed_rate"

    def test_catastrophic_evidence_never_skips_a_band(self):
        machine = BandMachine()
        bands = [machine.band]
        for tick in range(50):
            transition = machine.step(HOT, float(tick * 10))
            if transition is not None:
                assert transition.to_band == transition.from_band + 1
                bands.append(transition.to_band)
        assert bands == list(Band)
        assert machine.band is Band.FAILED

    def test_degrade_dwell_gates_further_falls(self):
        machine = BandMachine()
        machine.step(HOT, 0.0)  # Stable -> Strained
        assert machine.step(HOT, 10.0) is None  # only 10 ms in band
        assert machine.step(HOT, DEGRADE_DWELL - 1.0) is None
        transition = machine.step(HOT, DEGRADE_DWELL)
        assert transition is not None and transition.to_band is Band.ERODING

    def test_recovery_needs_both_streak_and_time_in_band(self):
        machine = BandMachine()
        machine.step(HOT, 0.0)
        # Calm from t=10: the streak matures at t=10 + RECOVER_DWELL.
        assert machine.step(CALM, 10.0) is None
        assert machine.step(CALM, 9.0 + RECOVER_DWELL) is None
        transition = machine.step(CALM, 10.0 + RECOVER_DWELL)
        assert transition is not None
        assert transition.direction == "recover"
        assert transition.reason == "calm"
        assert machine.band is Band.STABLE

    def test_hot_tick_resets_the_calm_streak(self):
        machine = BandMachine()
        machine.step(HOT, 0.0)
        machine.step(CALM, 10.0)
        hot_at = DEGRADE_DWELL + 10.0  # before the calm streak matures
        machine.step(HOT, hot_at)
        assert machine.band is Band.ERODING or machine.band is Band.STRAINED
        # ...and the streak restarted: calm from hot_at + 10 matures only
        # a full RECOVER_DWELL later.
        calm_at = hot_at + 10.0
        machine.step(CALM, calm_at)
        assert machine.step(CALM, calm_at + RECOVER_DWELL - 1.0) is None
        assert machine.step(CALM, calm_at + RECOVER_DWELL) is not None

    def test_hysteresis_gap_holds_the_band(self):
        # Above the recovery threshold (0.15) yet below the degrade
        # threshold (0.3): neither direction moves -- no oscillation.
        machine = BandMachine()
        machine.step(HOT, 0.0)
        lukewarm = ev(shed_rate=0.2)
        for tick in range(1, 30):
            assert machine.step(lukewarm, float(tick * 10)) is None
        assert machine.band is Band.STRAINED

    def test_recovery_climbs_one_band_per_dwell(self):
        machine = BandMachine()
        for tick in range(4):
            machine.step(HOT, tick * DEGRADE_DWELL)
        assert machine.band is Band.FAILED
        recovered = []
        start = 4 * DEGRADE_DWELL
        for tick in range(100):
            transition = machine.step(CALM, start + tick * 10)
            if transition is not None:
                assert transition.to_band == transition.from_band - 1
                recovered.append(transition.to_band)
        assert recovered == [
            Band.COMPROMISED,
            Band.ERODING,
            Band.STRAINED,
            Band.STABLE,
        ]
