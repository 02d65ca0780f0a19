"""One sequential quick sweep, shared by the tests that only read it."""

import pytest

from repro.experiments.runner import RUNNERS, run_many


@pytest.fixture(scope="session")
def quick_sweep():
    """``{id: RunOutcome}`` for every registered experiment (E1-E18,
    A1-A4) at quick size, seed 0, ``jobs=1``: the reference the jobs
    matrix compares against and the smoke cases assert on."""
    outcomes = run_many(list(RUNNERS), quick=True, seeds=(0,), jobs=1)
    return {outcome.name: outcome for outcome in outcomes}
