"""E18: the scenario x subsystem matrix and its CLI surface.

The cross-``--jobs`` byte-identity of the *default* E18 arms is covered
by the jobs matrix (``test_jobs_matrix.py``); here the same contract is
pinned with the subsystem flags applied -- every scenario must stay
deterministic under ``--faults``, ``--governor``, and ``--mega`` -- plus
the ``--overload``/``--autoscale``/``--replicas`` arms, the report
artifact and the ``--list-scenarios`` listing.
"""

import json

from repro.experiments import runner
from repro.experiments.e18_scenarios import EXPERIMENT as E18
from repro.scenarios import scenario_names


def test_units_cover_the_scenario_x_arm_matrix():
    units = E18.units(True, E18.bind({}))
    names = {u[0] for u in units}
    arms = {u[1] for u in units}
    assert names == set(scenario_names())
    assert {"plain", "faults", "governor", "mega"} <= arms
    assert len(units) == len(names) * len(arms)


def test_optional_flags_add_their_arms():
    flags = E18.bind({"overload": 6.0, "autoscale": 1.0, "replicas": 3})
    units = E18.units(True, flags)
    arms = {u[1] for u in units}
    assert {"overload", "autoscale", "replicas"} <= arms


def test_e18_is_byte_identical_across_jobs_under_the_subsystem_flags():
    kwargs = dict(quick=True, seeds=(0,), faults=2.0, governor=4.0, mega=50_000)
    (seq,) = runner.run_many(["e18"], jobs=1, **kwargs)
    (par,) = runner.run_many(["e18"], jobs=4, **kwargs)
    assert seq.passed, seq.report
    assert seq.report == par.report
    assert "faults arm" in seq.report
    assert "governor arm" in seq.report
    assert "mega arm" in seq.report


def test_the_optional_arms_hold_their_claims():
    # The one tier-1 run of _measure_overload/_autoscale/_replicas and of
    # scenarios.drive.ReplicaRouting.
    (out,) = runner.run_many(
        ["e18"], jobs=2, overload=6.0, autoscale=1.0, replicas=3
    )
    assert out.passed, out.report
    assert "overload arm" in out.report
    assert "autoscale arm" in out.report
    assert "replicas arm" in out.report


def test_report_artifact_is_written_and_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    ra = E18.run(quick=True, seed=0, report=str(a))
    rb = E18.run(quick=True, seed=0, report=str(b))
    assert all(c.passed for c in ra.checks) and all(c.passed for c in rb.checks)
    pa = a / "e18-scenarios-seed0.json"
    pb = b / "e18-scenarios-seed0.json"
    assert pa.read_bytes() == pb.read_bytes()
    payload = json.loads(pa.read_text())
    assert set(payload["scenarios"]) == set(scenario_names())
    denied = payload["scenarios"]["multi-tenant"]["plain"]["outcomes"]["denied"]
    assert denied > 0


def test_list_scenarios_flag_prints_the_catalog(capsys):
    assert runner.main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out
    assert "MayI" in out  # descriptions are shown, not just names
