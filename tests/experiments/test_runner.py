"""The experiment runner: one path at any ``jobs``, crashes, flags, CLI."""

import itertools
import os
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.experiments import runner
from repro.experiments.common import Experiment, ExperimentResult, whole
from repro.experiments.runner import (
    FLAG_NAMES,
    RUNNERS,
    RunOutcome,
    main,
    render_summary,
    run_many,
    run_one,
)
from repro.metrics.recorder import SeriesRecorder


def _result(partials, quick, seed, flags):
    result = ExperimentResult("T", "test sweep", "units merge", SeriesRecorder())
    result.check("partials arrive in unit order", partials == sorted(partials))
    return result


def _sweep(units=lambda quick, flags: [1, 2, 3], measure=None, finish=_result):
    """A three-unit experiment whose hooks a test can swap out."""
    return Experiment((), units, measure or _echo, finish)


def _echo(unit, quick, seed, flags):
    return unit


def _boom(*_args, **_kwargs):
    raise RuntimeError("injected crash")


def test_run_one_returns_primitives():
    outcome = run_one("e1", quick=True, seed=0)
    assert outcome.name == "e1"
    assert outcome.experiment == "E1"
    assert outcome.passed and outcome.failed == ()
    assert "binding resolution path" in outcome.report
    assert outcome.elapsed >= 0.0
    assert outcome.seed == 0


def test_parallel_matches_sequential():
    # e13 rides along: chaos runs must be byte-identical across job counts.
    names = ["e1", "e12", "e13"]
    seq = run_many(names, quick=True, seeds=(0,), jobs=1)
    par = run_many(names, quick=True, seeds=(0,), jobs=2)
    assert [o.report for o in par] == [o.report for o in seq]
    assert [o.passed for o in par] == [o.passed for o in seq]
    assert [(o.name, o.seed) for o in par] == [("e1", 0), ("e12", 0), ("e13", 0)]


def test_units_and_whole_experiments_share_one_pool(monkeypatch):
    """e15's units run beside e1 and e12 on the pool ``run_many`` opens:
    the parent constructs exactly one, and a worker that tried to open
    its own would crash its experiment and break the report equality."""
    parent = os.getpid()
    opened = []

    class OnePool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            assert os.getpid() == parent, "a worker opened a pool"
            opened.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(runner, "ProcessPoolExecutor", OnePool)
    names = ["e1", "e15", "e12"]
    seq = run_many(names, quick=True, seeds=(0,), jobs=1)
    assert opened == []
    par = run_many(names, quick=True, seeds=(0,), jobs=2)
    assert opened == [{"max_workers": 2}]
    assert all(o.passed for o in seq)
    assert [o.report for o in par] == [o.report for o in seq]


def test_multi_seed_ordering():
    outcomes = run_many(["e1"], quick=True, seeds=(0, 1), jobs=2)
    assert [(o.name, o.seed) for o in outcomes] == [("e1", 0), ("e1", 1)]


def test_jobs_1_merges_each_experiment_before_measuring_the_next(monkeypatch):
    log = []

    def sweep(name):
        def measure(unit, quick, seed, flags):
            log.append((name, unit))
            return unit

        def finish(partials, quick, seed, flags):
            log.append((name, "finish"))
            return _result(partials, quick, seed, flags)

        return _sweep(measure=measure, finish=finish)

    monkeypatch.setitem(RUNNERS, "e1", sweep("first"))
    monkeypatch.setitem(RUNNERS, "e2", sweep("second"))
    assert all(o.passed for o in run_many(["e1", "e2"], jobs=1))
    assert log == [
        (name, step) for name in ("first", "second") for step in (1, 2, 3, "finish")
    ]


def test_elapsed_is_the_unit_walls_plus_finish(monkeypatch):
    # Every clock read advances one tick, so each timed span is one tick
    # wide wherever and whenever it ran.
    monkeypatch.setattr(runner.time, "perf_counter", itertools.count().__next__)
    monkeypatch.setitem(RUNNERS, "e1", _sweep())
    first, second = run_many(["e1", "e2"], jobs=1)
    assert first.elapsed == 3 + 1  # three units and finish
    assert second.elapsed == 1 + 1  # a whole experiment is one unit


def test_crashed_experiment_is_a_failure(monkeypatch):
    monkeypatch.setitem(RUNNERS, "e1", whole(_boom))
    outcome = run_one("e1", quick=True, seed=0)
    assert not outcome.passed and outcome.failed == ("crashed",)
    assert "e1: CRASHED" in outcome.report
    assert "injected crash" in outcome.report


def _assert_the_crash_is_contained(monkeypatch, hook, jobs):
    monkeypatch.setitem(RUNNERS, "e9", _sweep(**{hook: _boom}))
    e9, e12 = run_many(["e9", "e12"], quick=True, seeds=(0,), jobs=jobs)
    assert not e9.passed and e9.failed == ("crashed",)
    assert "e9: CRASHED" in e9.report
    assert "injected crash" in e9.report
    assert e12.passed  # the sweep went on


def test_crashed_unit_in_a_worker_is_a_crashed_experiment(monkeypatch):
    _assert_the_crash_is_contained(monkeypatch, "measure", jobs=2)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("hook", ["units", "finish"])
def test_units_or_finish_raising_is_a_crashed_experiment(monkeypatch, hook, jobs):
    _assert_the_crash_is_contained(monkeypatch, hook, jobs)


@pytest.mark.parametrize("jobs", [1, 2])
def test_unknown_flag_fails_loudly_before_any_task_runs(monkeypatch, jobs):
    ran = []
    monkeypatch.setitem(RUNNERS, "e1", whole(lambda quick, seed: ran.append(seed)))
    with pytest.raises(TypeError) as exc:
        run_many(["e1"], jobs=jobs, fualts=2)
    assert "'fualts'" in str(exc.value)
    assert all(name in str(exc.value) for name in FLAG_NAMES)
    assert ran == []


def test_flag_table_and_runner_signatures_agree():
    """A flag reaches the experiments whose record declares it, so every
    flag needs at least one taker and no record may declare a keyword
    the table (and hence the CLI) does not know."""
    declared = set()
    for experiment in RUNNERS.values():
        declared |= set(experiment.flags)
    assert declared == set(FLAG_NAMES)


def test_flags_reach_only_the_runners_that_declare_them(monkeypatch):
    seen = {}

    def takes_faults(quick, seed, faults):
        seen["faults"] = faults
        raise RuntimeError("stop here")

    monkeypatch.setitem(RUNNERS, "e12", whole(takes_faults, "faults"))
    run_one("e12", quick=True, seed=0, faults=2.0, mega=7)
    assert seen == {"faults": 2.0}
    # Direct use of a record is strict: a flag it does not declare is a bug.
    with pytest.raises(TypeError, match="mega"):
        RUNNERS["e12"].run(quick=True, seed=0, mega=7)


def test_render_summary_verdict():
    ok = RunOutcome("e1", "E1", True, "", 0.1, 0)
    bad = RunOutcome("e2", "E2", False, "", 0.2, 0, ("x1 flow: settles", "crashed"))
    text = render_summary([ok, bad], multi_seed=False)
    assert "SOME CLAIMS FAILED" in text
    assert "PASS  E1" in text and "FAIL  E2" in text
    # The failing checks are named, indented, under their FAIL row.
    rows = text.splitlines()
    at = next(i for i, row in enumerate(rows) if "FAIL  E2" in row)
    assert [row.strip() for row in rows[at + 1 : at + 3]] == [
        "- x1 flow: settles",
        "- crashed",
    ]
    assert "all claims hold" in render_summary([ok], multi_seed=False)


def test_cli_parallel_quick_subset(capsys):
    rc = main(["e1", "e12", "--quick", "--jobs", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all claims hold" in out


def test_cli_rejects_full_and_quick():
    with pytest.raises(SystemExit):
        main(["--full", "--quick"])


def test_cli_rejects_bad_jobs():
    with pytest.raises(SystemExit):
        main(["--jobs", "0"])


def test_cli_has_no_shards_flag():
    with pytest.raises(SystemExit):
        main(["--shards", "2"])
