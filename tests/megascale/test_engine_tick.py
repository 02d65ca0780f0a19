"""``BulkEngine.tick`` at its boundary: what it rejects, what it costs.

* an engine or scenario argument outside its legal range is refused when
  it is built, with an ``InvalidArgument`` naming it;
* a tick is validated before anything is counted -- a rejected one leaves
  the settlement ledger as it was;
* out-of-range, non-integer and non-1-D targets fail with an
  ``InvalidArgument`` naming the id and the legal range, the dtype or the
  shape; an empty tick stays valid;
* the sort-based kernel lands where the per-agent ``ReferenceMachine``
  does at its edges: one bulk target, no bulk target, runs at the first
  and last id, one id repeated, limits 0 and None, a frame grown after
  the engine was built;
* a sparse tick on a 10^6-row frame allocates in proportion to the tick,
  not the frame (the clock-free form of "O(touched)"), and a dense tick
  peaks at most 30 traced bytes a call;
* a twin whose process entry is ``crashed`` is no live server;
* the boundary does not own its engine: dropping the engine frees the
  frame by refcount.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.errors import InvalidArgument, LegionError
from repro.megascale import (
    BULK,
    HOT,
    PROMOTED,
    BulkEngine,
    LiveEscalationBoundary,
    MegaScenario,
    ReferenceMachine,
)
from repro.megascale.scenario import build_live_system
from tests.megascale.test_differential import assert_twins_equal
from tests.megascale.test_frame import make_frame


def build(n=10, n_classes=3, n_hosts=4, **engine_kwargs):
    frame = make_frame(n, n_classes, n_hosts)
    return frame, BulkEngine(frame, **engine_kwargs)


class TestEngineArgumentsFailAtTheBoundary:
    @pytest.mark.parametrize("limit", [-1, 1.5, float("nan"), True])
    def test_per_tick_limit_is_none_or_an_int_at_least_0(self, limit):
        frame = make_frame(4)
        with pytest.raises(
            InvalidArgument, match=rf"per_tick_limit={limit!r}: must be an int in \[0, inf\)"
        ):
            BulkEngine(frame, per_tick_limit=limit)

    def test_a_zero_limit_sheds_every_bulk_call(self):
        frame, engine = build(4, per_tick_limit=0)
        out = engine.tick(0, [0, 0, 1])
        assert (out.bulk_served, out.shed) == (0, 3)
        assert int(frame.value.sum()) == 0 and engine.settled()

    @pytest.mark.parametrize("hot", [-1, 4, 9, 1.0])
    def test_hot_ids_must_name_a_row(self, hot):
        frame = make_frame(4)
        with pytest.raises(InvalidArgument, match=rf"hot id={hot!r}: must be an int in \[0, 4\)"):
            BulkEngine(frame, hot_ids=[hot])

    def test_demote_after_is_an_int_at_least_0(self):
        frame = make_frame(4)
        with pytest.raises(InvalidArgument, match=r"demote_after=-5: must be an int in \[0, inf\)"):
            BulkEngine(frame, demote_after=-5)


class TestScenarioArgumentsFailAtTheBoundary:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("calls_per_tick", -1),
            ("ticks", -3),
            ("n_classes", 0),
            ("demote_after", -1),
            ("touches_per_tick", -1),
            ("ticks", 2.5),
            ("population", 0),
        ],
    )
    def test_int_fields_refuse_values_out_of_range(self, field, value):
        with pytest.raises(InvalidArgument, match=rf"MegaScenario {field}={value!r}: must be an int"):
            MegaScenario(**{"population": 10, field: value})

    @pytest.mark.parametrize("tick_ms", [float("nan"), 0.0, -1.0, float("inf")])
    def test_tick_ms_is_positive_and_finite(self, tick_ms):
        with pytest.raises(InvalidArgument, match=r"tick_ms=.*: must be in \(0, inf\)"):
            MegaScenario(population=10, tick_ms=tick_ms)

    def test_touches_need_a_hot_set(self):
        with pytest.raises(InvalidArgument, match="touches_per_tick=2: needs hot >= 1"):
            MegaScenario(population=10, hot=0)
        assert MegaScenario(population=10, hot=0, touches_per_tick=0).hot_ids() == []


class TestRejectedTickLeavesNoTrace:
    def test_out_of_range_tick_does_not_unsettle_the_ledger(self):
        frame, engine = build()
        with pytest.raises(InvalidArgument, match=r"target id 99 out of range \[0, 10\)"):
            engine.tick(0, [3, 99])
        assert engine.ledger.issued == 0
        assert engine.settled()
        assert int(frame.value.sum()) == 0
        out = engine.tick(1, [3, 4, 4])
        assert (out.issued, out.bulk_served) == (3, 3)
        assert engine.settled()

    def test_negative_id_rejected_before_counting(self):
        _, engine = build()
        with pytest.raises(InvalidArgument, match=r"target id -1 out of range \[0, 10\)"):
            engine.tick(0, [-1, 2])
        assert engine.ledger.issued == 0 and engine.settled()

    def test_a_named_id_is_checked_before_any_cast(self):
        """2^32 + 3 would name row 3 as an int32 key; it is refused."""
        frame, engine = build()
        with pytest.raises(InvalidArgument, match=r"target id 4294967299 out of range"):
            engine.tick(0, np.array([2**32 + 3], dtype=np.uint64))
        assert int(frame.value[3]) == 0 and engine.settled()


class TestBadTargetsFailLoudly:
    def test_float_targets_are_not_truncated(self):
        frame, engine = build()
        with pytest.raises(InvalidArgument, match="integer ids, got dtype float64"):
            engine.tick(0, [3.7])
        assert int(frame.value[3]) == 0 and engine.settled()

    def test_two_dimensional_targets_are_not_flattened(self):
        frame, engine = build()
        with pytest.raises(InvalidArgument, match=r"1-D sequence of ids, got shape \(2, 2\)"):
            engine.tick(0, [[1, 2], [3, 4]])
        assert int(frame.value.sum()) == 0 and engine.settled()

    def test_empty_tick_is_the_zero_outcome(self):
        _, engine = build()
        out = engine.tick(4, [])  # numpy types [] as float64
        assert (out.tick, out.issued, out.bulk_served, out.escalated, out.shed) == (
            4, 0, 0, 0, 0,
        )
        assert engine.settled()

    def test_frame_grown_after_the_engine_was_built(self):
        """New rows are bulk and not hot; the hot bit survives promote
        and demote."""
        frame, engine = build(hot_ids=[1])
        frame.extend(5, klass=0, host=0)  # ids 10..14
        assert [int(x) for x in frame.state[10:]] == [BULK] * 5
        out = engine.tick(0, [12, 12, 1])
        assert (out.bulk_served, out.escalated) == (2, 1)
        assert int(frame.value[12]) == 2
        assert int(frame.state[1]) == HOT | PROMOTED
        engine.demote_all()
        assert int(frame.state[1]) == HOT
        assert engine.tick(1, [1]).escalated == 1
        assert engine.settled()


class TestKernelEdgesMatchTheReference:
    """Each tick's outcome is the reference ledger's move over that tick;
    per-row values, per-class tallies and ledgers agree at the end."""

    def twins(self, n=10, hot=(), limit=None):
        engine = BulkEngine(make_frame(n), hot_ids=hot, per_tick_limit=limit)
        ref = ReferenceMachine(3, 4, hot_ids=hot, per_tick_limit=limit)
        ref.extend(n, klass=[i % 3 for i in range(n)], host=0)
        return engine, ref

    def step(self, engine, ref, tick, targets):
        def counts():
            rl = ref.ledger
            return (rl.issued, rl.bulk_completed, rl.escalated_completed, rl.shed)

        before = counts()
        out = engine.tick(tick, targets)
        ref.tick(tick, targets)
        moved = tuple(a - b for a, b in zip(counts(), before, strict=True))
        assert (out.issued, out.bulk_served, out.escalated, out.shed) == moved
        return out

    def test_a_single_bulk_target(self):
        engine, ref = self.twins(limit=2)
        out = self.step(engine, ref, 0, [5])
        assert (out.bulk_served, out.escalated, out.shed) == (1, 0, 0)
        assert_twins_equal(engine, ref)

    def test_a_tick_with_no_bulk_target(self):
        engine, ref = self.twins(hot=[1, 3])
        self.step(engine, ref, 0, [1, 3, 3, 1])  # all hot
        out = self.step(engine, ref, 1, [3, 1, 1])  # all hot and promoted
        assert (out.bulk_served, out.escalated) == (0, 3)
        assert_twins_equal(engine, ref)

    def test_runs_at_the_first_and_the_last_id(self):
        engine, ref = self.twins(limit=2)
        out = self.step(engine, ref, 0, [9, 0, 9, 5, 0, 9, 0, 0])
        assert (out.bulk_served, out.shed) == (5, 3)
        assert [int(v) for v in engine.frame.value[[0, 9]]] == [2, 2]
        assert_twins_equal(engine, ref)

    @pytest.mark.parametrize("limit, served", [(2, 2), (None, 1000)])
    def test_one_id_repeated(self, limit, served):
        engine, ref = self.twins(limit=limit)
        out = self.step(engine, ref, 0, [7] * 1000)
        assert (out.bulk_served, out.shed) == (served, 1000 - served)
        assert_twins_equal(engine, ref)

    @pytest.mark.parametrize("limit", [0, None])
    def test_limits_zero_and_none(self, limit):
        engine, ref = self.twins(hot=[4], limit=limit)
        rng = np.random.default_rng(0)
        for tick in range(3):
            self.step(engine, ref, tick, rng.integers(0, 10, size=40))
        if limit is None:
            assert engine.ledger.shed == 0
        else:
            assert engine.ledger.bulk_completed == 0 and engine.ledger.shed > 0
        assert_twins_equal(engine, ref)

    def test_a_frame_grown_after_the_engine_was_built(self):
        engine, ref = self.twins(hot=[2], limit=1)
        engine.frame.extend(4, klass=2, host=0)  # ids 10..13
        ref.extend(4, klass=2, host=0)
        out = self.step(engine, ref, 0, [13, 10, 13, 2, 11, 13])
        assert (out.bulk_served, out.escalated, out.shed) == (3, 1, 2)
        assert_twins_equal(engine, ref)


def test_sparse_tick_allocates_for_the_tick_not_the_frame():
    """1,000 targets over 10^6 rows: under 1 MiB at peak (40 MB when every
    tick made whole-frame temporaries)."""
    n = 1_000_000
    frame, engine = build(n, 1000, 500, per_tick_limit=2)
    rng = np.random.default_rng(0)
    engine.tick(0, rng.integers(0, n, size=1000))  # numpy's lazy imports
    targets = rng.integers(0, n, size=1000)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = engine.tick(1, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.bulk_served + out.shed == 1000
    assert peak - before < 1 << 20


def test_dense_tick_peaks_at_most_30_bytes_a_call():
    """500k calls over 10^6 rows at limit 2: each temporary is released
    once read (36.9 bytes a call when ``np.unique`` grouped the tick)."""
    n, k = 1_000_000, 500_000
    frame, engine = build(n, 1000, 500, per_tick_limit=2)
    rng = np.random.default_rng(0)
    engine.tick(0, rng.integers(0, n, size=k))  # numpy's lazy imports
    targets = rng.integers(0, n, size=k)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = engine.tick(1, targets)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.bulk_served + out.shed == k
    assert (peak - before) / k <= 30


class TestCrashedTwinIsNoLiveServer:
    """Id 7 is hot: a call promotes it onto a real Legion twin."""

    def make(self):
        spec = MegaScenario(population=40)
        system, classes, client = build_live_system(spec, seed=0)
        frame, engine = build(
            40, spec.n_classes, spec.bulk_hosts, hot_ids=[7],
            boundary=LiveEscalationBoundary(system, classes, client),
        )
        engine.boundary.engine = engine
        engine.tick(0, [7])
        system.kernel.run()  # the escalated Increment lands
        assert engine.settled()
        return system, frame, engine

    def crash_twin(self, system, engine):
        loid = engine.boundary.twins[7].loid
        for host_server in system.host_servers.values():
            if host_server.impl.processes.find(loid) is not None:
                host_server.impl.crash_object(loid)
                return
        raise AssertionError("twin runs nowhere")

    def test_demote_of_a_crashed_twin_raises(self):
        system, _, engine = self.make()
        self.crash_twin(system, engine)
        with pytest.raises(LegionError, match="demote: twin for id 7 has no live server"):
            engine.demote_all()

    def test_repromote_onto_a_crashed_twin_raises(self):
        system, frame, engine = self.make()
        engine.demote_all()
        assert int(frame.value[7]) == 1
        self.crash_twin(system, engine)
        with pytest.raises(LegionError, match="promote: twin for id 7 has no live server"):
            engine.tick(1, [7])


def test_dropping_the_engine_frees_the_frame_without_the_collector():
    """The engine owns the boundary and the frame; the boundary refers
    back weakly.  As a cycle, a dropped 10^6-row frame lived until the
    next gen-2 collection -- +38 MB on ``mega_dense``'s peak RSS once the
    call path stopped making the garbage that triggered one."""
    system, frame, engine = TestCrashedTwinIsNoLiveServer().make()
    boundary = engine.boundary
    assert boundary.engine is engine
    gc.collect()
    gc.disable()
    try:
        watched = weakref.ref(frame)
        del frame, engine
        assert watched() is None
        assert boundary.engine is None
    finally:
        gc.enable()
