"""The unit protocol: which experiments shard, and what may cross the pool.

Every experiment is ``units → measure → finish``
(:class:`repro.experiments.common.Experiment`); the sweeps whose points
are independent seeded universes list more than one unit, and
``run_many(..., jobs=N)`` measures those in any order on its worker
pool before ``finish`` merges the partials in unit order.  The
byte-identity of the reports across ``--jobs`` is pinned by
``test_jobs_matrix.py``; here, the structure it rests on.
"""

import pickle

from repro.experiments.runner import RUNNERS

MATRIX = ["e9", "e13", "e15", "e16", "e17", "e18"]


def test_every_sharded_sweep_has_parallelism_to_farm_out():
    sharded = [
        name
        for name, experiment in RUNNERS.items()
        if len(experiment.units(True, experiment.bind({}))) > 1
    ]
    assert sharded == MATRIX


def test_partials_survive_the_pool_boundary(quick_sweep, quick_partials):
    """A partial that has been through pickle merges to the same bytes:
    at ``--jobs N`` every partial reaches ``finish`` that way, so a live
    object (a system, a generator, a lambda) in one must fail here, by
    name, rather than as a worker-side traceback in a sweep."""
    assert sorted(quick_partials) == sorted(RUNNERS)
    for name, partials in quick_partials.items():
        experiment = RUNNERS[name]
        shipped = pickle.loads(pickle.dumps(partials))
        result = experiment.finish(shipped, True, 0, experiment.bind({}))
        assert result.render() == quick_sweep[name].report, name
