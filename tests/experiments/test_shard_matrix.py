"""The shard protocol: registry and hooks of the unit-sharded sweeps.

Each SHARDED experiment decomposes into independent units (one seeded
universe per jurisdiction sweep point) that ``run_many(..., jobs=N)``
measures in any order on its worker pool; ``shard_finish`` merges the
partials in unit order.  ``run()`` itself is composed from the same
three hooks, which is what makes the sequential run the reference.  The
byte-identity of the reports across ``--jobs`` is pinned by
``test_jobs_matrix.py``.
"""

from repro.experiments.runner import SHARDED

MATRIX = ["e9", "e13", "e15", "e16", "e17", "e18"]


def test_sharded_registry_covers_the_matrix():
    assert sorted(SHARDED) == sorted(MATRIX)
    for name, module in SHARDED.items():
        for hook in ("shard_units", "shard_measure", "shard_finish"):
            assert hasattr(module, hook), f"{name} lacks {hook}"


def test_every_sharded_sweep_has_parallelism_to_farm_out():
    for name, module in SHARDED.items():
        assert len(module.shard_units(quick=True)) > 1, name


def test_run_is_composed_from_the_shard_hooks():
    """The sequential ``run()`` and a hand-driven measure/finish agree."""
    module = SHARDED["e9"]
    partials = [
        module.shard_measure(unit, quick=True, seed=0)
        for unit in module.shard_units(quick=True)
    ]
    composed = module.shard_finish(partials, quick=True, seed=0)
    direct = module.run(quick=True, seed=0)
    assert composed.render() == direct.render()

