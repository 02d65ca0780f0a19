"""The differential harness: one seeded scenario, interchangeable backends.

Three-way equivalence:

* columnar :class:`BulkEngine` vs the numpy-free per-agent
  :class:`ReferenceMachine` -- identical ledgers, per-class counters,
  per-id values, and checksums, including the shed path;
* columnar-with-live-escalation (:func:`run_columnar`) vs the
  all-rich-objects backend (:func:`run_rich`) at overlap scales: the
  rendered :class:`MegaReport` must match **byte for byte** -- per-class
  counters, settlement identities, value checksums, the lot.

The columnar backend is only trusted at 10^6-10^7 where these proofs
hold at 10^2-10^4.
"""

import os

import numpy as np
import pytest

from repro.megascale import (
    BulkEngine,
    MegaScenario,
    ReferenceMachine,
    StateFrame,
    differential_spec,
    run_columnar,
    run_rich,
)

#: The rich arm builds one real Legion object per id, so the top overlap
#: scale (10^4 objects, ~6 s) only runs when asked for explicitly --
#: CI's differential job sets MEGA_DIFF_SCALE=10000.
DEFAULT_SCALES = [100, 1000]


def overlap_scales():
    scales = list(DEFAULT_SCALES)
    extra = int(os.environ.get("MEGA_DIFF_SCALE", "0"))
    if extra:
        scales.append(extra)
    return scales


def drive_pair(seed, n=400, ticks=10, per_tick=250, limit=2):
    """Drive engine and reference through one identical seeded scenario."""
    rng = np.random.default_rng(seed)
    n_classes, n_hosts = 4, 5
    hot = [0, n // 3, 2 * n // 3]
    frame = StateFrame(n_classes=n_classes, n_hosts=n_hosts)
    klass = (np.arange(n) % n_classes).astype(np.int32)
    host = (np.arange(n) % n_hosts).astype(np.int32)
    frame.extend(n, klass=klass, host=host)
    engine = BulkEngine(frame, hot_ids=hot, per_tick_limit=limit, demote_after=2)
    ref = ReferenceMachine(
        n_classes, n_hosts, hot_ids=hot, per_tick_limit=limit, demote_after=2
    )
    ref.extend(n, klass=klass, host=host)
    for tick in range(ticks):
        targets = rng.integers(0, n, size=per_tick)
        engine.tick(tick, targets)
        ref.tick(tick, targets)
        engine.demote_idle(tick)
        ref.demote_idle(tick)
    engine.demote_all()
    ref.demote_all()
    return engine, ref


def assert_twins_equal(engine, ref):
    """Per-row values, per-class tallies, ledgers and checksum agree.

    Neither machine keeps per-row served or shed counts, and none are
    needed.  A row starts at value 0 and each served call adds 1, so its
    value is what it served; what it shed is its arrivals less that.
    Both machines see the same arrivals, so equal per-row values imply
    equal per-row served and shed counts.
    """
    frame = engine.frame
    el, rl = engine.ledger, ref.ledger
    assert (el.issued, el.bulk_completed, el.escalated_completed, el.shed) == (
        rl.issued,
        rl.bulk_completed,
        rl.escalated_completed,
        rl.shed,
    )
    assert (el.promotions, el.demotions) == (rl.promotions, rl.demotions)
    assert engine.settled() and ref.settled()
    assert [int(x) for x in frame.class_calls] == ref.class_calls
    assert [int(x) for x in frame.class_escalated] == ref.class_escalated
    assert [int(v) for v in frame.value] == [o.value for o in ref.objects]
    assert frame.value_checksum() == ref.value_checksum()
    assert frame.band_histogram() == ref.band_histogram()


class TestEngineVsReference:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_calm_scenario_matches_exactly(self, seed):
        assert_twins_equal(*drive_pair(seed))

    @pytest.mark.parametrize("seed", [3, 11])
    def test_shed_path_matches_exactly(self, seed):
        engine, ref = drive_pair(seed, n=50, per_tick=600, limit=1)
        assert engine.ledger.shed > 0  # the limit actually bit
        assert_twins_equal(engine, ref)

    def test_unlimited_admission_sheds_nothing(self):
        engine, ref = drive_pair(2, limit=None)
        assert engine.ledger.shed == 0
        assert_twins_equal(engine, ref)


class TestColumnarVsRichLive:
    """The tentpole proof: both live backends render identical reports."""

    @pytest.mark.parametrize("population", overlap_scales())
    def test_reports_identical_byte_for_byte(self, population):
        spec = differential_spec(population)
        col = run_columnar(spec, seed=11)
        rich = run_rich(spec, seed=11)
        assert col.report.render() == rich.report.render()
        # settlement identities close on BOTH sides, wire included
        assert col.report.settled and col.report.wire_settled
        assert rich.report.settled and rich.report.wire_settled
        # per-class counters match element-wise, not just as rendered text
        assert col.report.class_calls == rich.report.class_calls
        assert col.report.value_checksum == rich.report.value_checksum

    def test_columnar_escalation_actually_happened(self):
        spec = differential_spec(100)
        col = run_columnar(spec, seed=11)
        d = col.diagnostics
        assert d["promotions"] > 0 and d["demotions"] == d["promotions"]
        assert d["rich_calls"] > 0
        assert d["escalated_by_class_match"]
        assert d["failures"] == []
        # every id demoted back: the frame ends all-bulk
        assert d["band_histogram"] == {"bulk": spec.population, "promoted": 0}

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_value_is_lost_when_promotions_overrun_the_tick(self, seed):
        """16 hot ids go idle between touches, and a promotion's blocking
        ``create_instance`` runs the kernel past the next 20 ms tick
        boundaries: ``run(until=<past>)`` must not rewind the clock, and
        a twin must not be folded back while its Increment is in flight."""
        spec = MegaScenario(population=2000, hot=16, ticks=12, tick_ms=20.0)
        report = run_columnar(spec, seed=seed).report
        assert report.settled and report.wire_settled
        assert report.value_total == report.completed

    def test_seed_changes_the_plan_and_the_checksum(self):
        spec = differential_spec(100)
        a = run_columnar(spec, seed=1)
        b = run_columnar(spec, seed=2)
        assert a.report.value_checksum != b.report.value_checksum

    def test_same_seed_is_deterministic(self):
        spec = differential_spec(100)
        a = run_columnar(spec, seed=5)
        b = run_columnar(spec, seed=5)
        assert a.report.render() == b.report.render()
        assert a.sim_events == b.sim_events
