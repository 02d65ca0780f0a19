"""StateFrame and IdAllocator unit tests.

The allocator-monotonicity tests are the regression pinning the id
contract: escalation/demotion churn must never recycle a dense id within
a run, or trace and audit rows recorded before the churn would silently
refer to a different logical object after it.

The memory ratchet prices a row without an interpreter pin: the frame's
per-row columns sum to at most 13 bytes, and growing a frame by 10^5
rows peaks at most 22 traced bytes a row, returned ids included.
"""

import tracemalloc

import numpy as np
import pytest

from repro.errors import InvalidArgument, LegionError
from repro.megascale import BULK, HOT, PROMOTED, BulkEngine, IdAllocator, StateFrame


def make_frame(n=12, n_classes=3, n_hosts=4):
    frame = StateFrame(n_classes=n_classes, n_hosts=n_hosts)
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

    def test_extend_validates_class_and_host_ranges(self):
        frame = StateFrame(n_classes=2, n_hosts=2)
        with pytest.raises(LegionError):
            frame.extend(1, klass=2, host=0)
        with pytest.raises(LegionError):
            frame.extend(1, klass=0, host=-1)

    def test_band_reports_read_the_promoted_bit_alone(self):
        frame = make_frame(4)
        frame.state[2] |= HOT
        assert frame.snapshot_row(2)["state"] == BULK
        (snap,) = frame.promote([2])
        assert snap["state"] == BULK
        assert int(frame.state[2]) == HOT | PROMOTED
        assert frame.band_histogram() == {"bulk": 3, "promoted": 1}
        assert frame.snapshot_row(2)["state"] == PROMOTED
        frame.demote(2, value=5)
        assert int(frame.state[2]) == HOT
        assert frame.band_histogram() == {"bulk": 4, "promoted": 0}

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


# ---------------------------------------------------------- memory ratchet


class TestFrameHoldsWhatIsRead:
    def test_row_columns_sum_to_at_most_13_bytes(self):
        frame = make_frame(1000)
        columns = {
            name: col
            for name, col in vars(frame).items()
            if isinstance(col, np.ndarray) and col.shape == (frame.size,)
        }
        assert sum(col.itemsize for col in columns.values()) <= 13
        assert set(columns) == {"klass", "state", "value"}

    def test_extend_peaks_at_most_22_bytes_a_row(self):
        n = 100_000
        klass = (np.arange(n) % 3).astype(np.int32)
        host = (np.arange(n) % 4).astype(np.int32)
        StateFrame(n_classes=3, n_hosts=4).extend(n, klass=klass, host=host)  # warm
        frame = StateFrame(n_classes=3, n_hosts=4)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            ids = frame.extend(n, klass=klass, host=host)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ids) == n
        assert (peak - before) / n <= 22


# ---------------------------------------------------------- bad arguments


class TestFrameArgumentsFailAtTheBoundary:
    def test_class_count_must_be_an_int(self):
        with pytest.raises(InvalidArgument, match=r"n_classes=2\.5: must be an int in \[1, inf\)"):
            StateFrame(2.5, 1)
        with pytest.raises(InvalidArgument, match="n_hosts=0"):
            StateFrame(1, 0)

    def test_class_array_of_the_wrong_length(self):
        frame = StateFrame(n_classes=2, n_hosts=2)
        with pytest.raises(InvalidArgument, match=r"klass: .*length 3.*shape \(2,\)"):
            frame.extend(3, klass=np.array([0, 1]), host=0)
        assert frame.size == 0

    def test_float_classes_are_not_truncated(self):
        frame = StateFrame(n_classes=2, n_hosts=2)
        with pytest.raises(InvalidArgument, match="klass: .*float64"):
            frame.extend(2, klass=np.array([0.7, 1.9]), host=0)
        with pytest.raises(InvalidArgument, match="klass: .*float64"):
            frame.extend(1, klass=float("nan"), host=0)
        with pytest.raises(InvalidArgument, match="host: .*bool"):
            frame.extend(1, klass=0, host=True)
        assert frame.size == 0

    def test_refused_range_leaves_the_frame_as_it_was(self):
        frame = make_frame(4, n_classes=2, n_hosts=2)
        with pytest.raises(InvalidArgument, match=r"host: entries must be in \[0, 2\), got \[0, 5\]"):
            frame.extend(2, klass=0, host=np.array([0, 5], dtype=np.int64))
        assert frame.size == 4 and frame.allocator.high_water == 4

    def test_count_must_be_an_int(self):
        frame = StateFrame(n_classes=2, n_hosts=2)
        with pytest.raises(InvalidArgument, match=r"count=-1"):
            frame.extend(-1, klass=0, host=0)
        with pytest.raises(InvalidArgument, match=r"count=2\.0"):
            frame.extend(2.0, klass=0, host=0)

    def test_integer_arrays_of_any_width_are_accepted(self):
        frame = StateFrame(n_classes=3, n_hosts=2)
        ids = frame.extend(3, klass=np.array([2, 0, 1], dtype=np.uint8), host=[1, 1, 0])
        assert list(ids) == [0, 1, 2]
        assert [int(x) for x in frame.klass] == [2, 0, 1]

    def test_growth_past_int32_ids_is_refused_before_allocating(self):
        """The tick kernel sorts ids as int32 keys: 2^31 - 1 rows at most."""
        frame = make_frame(4)
        with pytest.raises(
            InvalidArgument, match=r"count=2147483644: the frame holds 4 rows .* 2147483643 more"
        ):
            frame.extend(2**31 - 4, klass=0, host=0)
        with pytest.raises(InvalidArgument, match=r"count=2147483648: .* at most 2147483647 "):
            StateFrame(n_classes=1, n_hosts=1).extend(2**31, klass=0, host=0)
        assert frame.size == 4 and frame.allocator.high_water == 4
