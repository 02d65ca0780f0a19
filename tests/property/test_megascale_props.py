"""Property-based tests over the columnar mega-scale kernels.

Hypothesis sweeps random (seed, population, admission limit, hot set)
scenarios; for each one:

* the frame-at-once :class:`BulkEngine` kernels must land on *exactly*
  the state the numpy-free per-agent :class:`ReferenceMachine` reaches --
  ledgers, per-class tallies, per-id values, checksums;
* ``demote(promote(x))`` round-trips a row's columns exactly, for
  arbitrary column contents;
* the id allocator only ever moves forward, whatever the alloc sequence.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.megascale import (
    BULK,
    BulkEngine,
    IdAllocator,
    ReferenceMachine,
    StateFrame,
)
from tests.megascale.test_differential import assert_twins_equal

scenarios = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**31 - 1),
        "n": st.integers(5, 120),
        "n_classes": st.integers(1, 6),
        "n_hosts": st.integers(2, 5),
        "ticks": st.integers(1, 8),
        "per_tick": st.integers(0, 300),
        "limit": st.one_of(st.none(), st.integers(1, 4)),
        "n_hot": st.integers(0, 4),
    }
)


@settings(max_examples=40)
@given(cfg=scenarios)
def test_frame_kernels_match_the_per_agent_reference(cfg):
    rng = np.random.default_rng(cfg["seed"])
    n = cfg["n"]
    hot = sorted(rng.choice(n, size=min(cfg["n_hot"], n), replace=False).tolist())
    klass = rng.integers(0, cfg["n_classes"], size=n).astype(np.int32)
    host = rng.integers(0, cfg["n_hosts"], size=n).astype(np.int32)

    frame = StateFrame(n_classes=cfg["n_classes"], n_hosts=cfg["n_hosts"])
    frame.extend(n, klass=klass, host=host)
    engine = BulkEngine(
        frame, hot_ids=hot, per_tick_limit=cfg["limit"], demote_after=2
    )
    ref = ReferenceMachine(
        cfg["n_classes"],
        cfg["n_hosts"],
        hot_ids=hot,
        per_tick_limit=cfg["limit"],
        demote_after=2,
    )
    ref.extend(n, klass=klass, host=host)

    for tick in range(cfg["ticks"]):
        targets = rng.integers(0, n, size=cfg["per_tick"])
        engine.tick(tick, targets)
        ref.tick(tick, targets)
        engine.demote_idle(tick)
        ref.demote_idle(tick)
    engine.demote_all()
    ref.demote_all()

    assert_twins_equal(engine, ref)


@settings(max_examples=40)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 60),
    pick=st.integers(0, 59),
)
def test_demote_promote_round_trips_exactly(seed, n, pick):
    rng = np.random.default_rng(seed)
    i = pick % n
    frame = StateFrame(n_classes=3, n_hosts=4)
    frame.extend(
        n,
        klass=rng.integers(0, 3, size=n).astype(np.int32),
        host=rng.integers(0, 4, size=n).astype(np.int32),
    )
    frame.value[:] = rng.integers(0, 10**12, size=n)

    before = frame.snapshot_row(i)
    checksum_before = frame.value_checksum()

    (snap,) = frame.promote([i])
    assert snap == before
    frame.demote(i, value=snap["value"])

    assert frame.snapshot_row(i) == before
    assert int(frame.state[i]) == BULK
    assert frame.value_checksum() == checksum_before


@settings(max_examples=60)
@given(counts=st.lists(st.integers(0, 1000), min_size=0, max_size=30))
def test_allocator_never_reuses_an_id(counts):
    alloc = IdAllocator()
    seen_stop = 0
    for count in counts:
        ids = alloc.alloc(count)
        assert ids.start == seen_stop  # contiguous, monotone
        assert ids.stop == ids.start + count
        seen_stop = ids.stop
        assert alloc.high_water == seen_stop
    assert alloc.high_water == sum(counts)
