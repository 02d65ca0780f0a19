"""Cross ``--jobs`` determinism matrix: the parallel sweep is byte-identical.

``run_many``'s contract is that ``--jobs N`` is purely a wall-clock
optimisation: every experiment builds its own seeded universe, so the
rendered reports -- claim tables, check details, kernel fingerprints --
must match the sequential reference run byte for byte.  This matrix pins
that across E1-E18, including e14 whose autoscaler actions (spawn/retire
schedules) feed directly into the printed table, e15 whose per-call
overload records decide every goodput figure, and the six multi-unit
sweeps (e9/e13/e15/e16/e17/e18), whose units share the pool with
everything else and are merged in unit order by their ``finish``.

It is also the cover for the identity-hashed enums (``LinkClass``,
``ComponentKind``): ``NetworkStats.by_class`` and the metrics registry
are keyed by them, every worker builds and reads those dicts under its
own ``id()``-based hashes, and the per-class message counts and
per-kind loads the reports print must still come back byte-identical
(whatever crosses the pool boundary pickles members by name and
re-hashes on load).
"""

from repro.experiments.runner import RUNNERS, run_many

MATRIX = [f"e{i}" for i in range(1, 19)]


def test_registry_covers_the_matrix():
    missing = [name for name in MATRIX if name not in RUNNERS]
    assert not missing, f"experiments absent from the registry: {missing}"


def test_jobs_1_and_jobs_4_reports_are_byte_identical(quick_sweep):
    sequential = [quick_sweep[name] for name in MATRIX]
    parallel = run_many(MATRIX, quick=True, seeds=(0,), jobs=4)
    assert [(o.name, o.seed) for o in sequential] == [
        (o.name, o.seed) for o in parallel
    ]
    for seq, par in zip(sequential, parallel, strict=True):
        assert seq.passed, f"{seq.name} failed sequentially:\n{seq.report}"
        assert seq.report == par.report, f"{seq.name} diverged across --jobs"
