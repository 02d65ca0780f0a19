"""StateFrame and IdAllocator unit tests.

The allocator-monotonicity tests are the regression pinning the PR's id
contract: escalation/demotion churn must never recycle a dense id within
a run, or trace and audit rows recorded before the churn would silently
refer to a different logical object after it.
"""

import pytest

from repro.errors import LegionError
from repro.megascale import BULK, PROMOTED, BulkEngine, IdAllocator, StateFrame


def make_frame(n=12, n_classes=3, n_hosts=4):
    frame = StateFrame(n_classes=n_classes, n_hosts=n_hosts)
    np = frame.np
    frame.extend(
        n,
        klass=(np.arange(n) % n_classes).astype(np.int32),
        host=(np.arange(n) % n_hosts).astype(np.int32),
    )
    return frame


# ------------------------------------------------------------- id allocator


class TestIdAllocatorMonotone:
    def test_ranges_are_contiguous_and_disjoint(self):
        alloc = IdAllocator()
        a = alloc.alloc(5)
        b = alloc.alloc(3)
        assert list(a) == [0, 1, 2, 3, 4]
        assert list(b) == [5, 6, 7]
        assert alloc.high_water == 8

    def test_zero_count_moves_nothing(self):
        alloc = IdAllocator()
        assert list(alloc.alloc(0)) == []
        assert alloc.high_water == 0

    def test_negative_count_rejected(self):
        with pytest.raises(LegionError):
            IdAllocator().alloc(-1)

    def test_there_is_deliberately_no_release(self):
        # The absence of a free/release operation IS the contract; a
        # future "optimisation" adding one would break trace identity.
        alloc = IdAllocator()
        assert not hasattr(alloc, "release")
        assert not hasattr(alloc, "free")

    def test_escalation_churn_never_recycles_an_id(self):
        """Promote/demote cycles must not move the high-water mark, and
        new rows must always get ids above every id ever issued."""
        frame = make_frame(8)
        engine = BulkEngine(frame)
        before = frame.allocator.high_water
        for _ in range(5):
            engine._promote([2, 5])
            engine._last_touch[2] = engine._last_touch[5] = 0
            engine.demote_all()
        assert frame.allocator.high_water == before
        new_ids = frame.extend(3, klass=0, host=0)
        assert list(new_ids) == [before, before + 1, before + 2]


# ------------------------------------------------------------------- frame


class TestStateFrame:
    def test_new_rows_start_bulk_zeroed_cold(self):
        frame = make_frame(6)
        assert frame.band_histogram() == {"bulk": 6, "promoted": 0}
        assert int(frame.value.sum()) == 0
        assert bool((frame.cache_epoch == -1).all())

    def test_extend_validates_class_and_host_ranges(self):
        frame = StateFrame(n_classes=2, n_hosts=2)
        with pytest.raises(LegionError):
            frame.extend(1, klass=2, host=0)
        with pytest.raises(LegionError):
            frame.extend(1, klass=0, host=-1)

    def test_occupancy_tracks_extend_promote_demote(self):
        frame = make_frame(8, n_hosts=2)
        assert [int(x) for x in frame.host_occupancy] == [4, 4]
        frame.promote([0, 2])  # both on host 0
        assert [int(x) for x in frame.host_occupancy] == [2, 4]
        frame.demote(0, value=7)
        assert [int(x) for x in frame.host_occupancy] == [3, 4]
        assert int(frame.value[0]) == 7

    def test_promote_demote_round_trips_the_value(self):
        frame = make_frame(4)
        frame.value[1] = 41
        (snap,) = frame.promote([1])
        assert snap["value"] == 41 and snap["state"] == BULK
        assert int(frame.state[1]) == PROMOTED
        frame.demote(1, value=snap["value"] + 1)
        assert int(frame.state[1]) == BULK
        assert int(frame.value[1]) == 42

    def test_double_promote_rejected(self):
        frame = make_frame(4)
        frame.promote([1])
        with pytest.raises(LegionError):
            frame.promote([1])

    def test_demote_requires_promoted(self):
        frame = make_frame(4)
        with pytest.raises(LegionError):
            frame.demote(0, value=1)
        frame.promote([0])
        frame.demote(0, value=1)

    def test_checksum_is_order_sensitive(self):
        frame = make_frame(4)
        frame.value[0], frame.value[1] = 1, 2
        a = frame.value_checksum()
        frame.value[0], frame.value[1] = 2, 1
        assert frame.value_checksum() != a

    def test_checksum_empty_frame_is_zero(self):
        assert StateFrame(n_classes=1, n_hosts=1).value_checksum() == 0
