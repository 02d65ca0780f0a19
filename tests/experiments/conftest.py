"""One sequential quick sweep, shared by the tests that only read it."""

from dataclasses import replace

import pytest

from repro.experiments.runner import RUNNERS, run_many


@pytest.fixture(scope="session")
def _quick_run():
    """The session's one quick sweep (every registered experiment, seed
    0, ``jobs=1``), with each ``finish`` wrapped to keep the partials it
    was handed: ``({id: RunOutcome}, {id: partials})``."""
    partials = {}

    def keeping(name, finish):
        def wrapper(unit_partials, quick, seed, flags):
            partials[name] = unit_partials
            return finish(unit_partials, quick, seed, flags)

        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for name, experiment in RUNNERS.items():
            kept = replace(experiment, finish=keeping(name, experiment.finish))
            patch.setitem(RUNNERS, name, kept)
        outcomes = run_many(list(RUNNERS), quick=True, seeds=(0,), jobs=1)
    return {outcome.name: outcome for outcome in outcomes}, partials


@pytest.fixture(scope="session")
def quick_sweep(_quick_run):
    """``{id: RunOutcome}`` for every registered experiment (E1-E18,
    A1-A4) at quick size, seed 0, ``jobs=1``: the reference the jobs
    matrix compares against and the smoke cases assert on."""
    return _quick_run[0]


@pytest.fixture(scope="session")
def quick_partials(_quick_run):
    """``{id: partials}``: what each experiment's units returned in that
    same sweep, as its ``finish`` received them."""
    return _quick_run[1]
