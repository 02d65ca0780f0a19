"""Every experiment runs quick and passes all of its claim checks.

These are the same runs the benchmark harness prints; keeping them in the
test suite means `pytest tests/` alone certifies the reproduction.
"""

from functools import partial

import pytest

from repro.experiments import e1_binding_path, e12_loids
from repro.experiments.runner import RUNNERS

#: E1-E15 and the two single-table ablations, by registry id.  (E16-E18
#: assert their claims in their own test modules.)
SMOKE = [f"e{i}" for i in range(1, 16)] + ["a1", "a2"]


def _module(name):
    """The module experiment ``name`` is written in (``whole`` binds the
    module's ``run`` into its ``measure``)."""
    measure = RUNNERS[name].measure
    written = measure.args[0] if isinstance(measure, partial) else measure
    return written.__module__.rsplit(".", 1)[-1]


@pytest.mark.parametrize("name", SMOKE, ids=_module)
def test_experiment_claims_hold(name, quick_sweep):
    outcome = quick_sweep[name]
    assert outcome.passed, f"{outcome.experiment} failed:\n{outcome.report}"
    # The rendered report must be printable and mention the claim.
    assert outcome.experiment in outcome.report
    assert "claim:" in outcome.report


@pytest.mark.parametrize("name", ["a3", "a4"], ids=["a3_ttl", "a4_locality"])
def test_split_ablations_hold(name, quick_sweep):
    outcome = quick_sweep[name]
    assert outcome.passed, f"{outcome.experiment} failed:\n{outcome.report}"


def test_e12_full_arm_fits_its_testbed():
    # 16 classes x 24 instances: nothing else in tier-1 runs a --full arm.
    result = e12_loids.run(quick=False, seed=0)
    assert result.passed, result.render()


def test_experiments_are_seed_deterministic():
    a = e1_binding_path.run(quick=True, seed=3)
    b = e1_binding_path.run(quick=True, seed=3)
    assert a.recorder.xs == b.recorder.xs
    for name in a.recorder.series_names():
        assert a.recorder.series(name) == b.recorder.series(name)
