"""``benchmarks/host_cost.py``: the monotone reading of the ledger's gate.

The traced runs themselves are CI's job (minutes); here the verdict
function is checked on canned ``run.py`` output: lower host cost passes,
higher fails, and anything that is not a ``*.pycalls_per_op`` line --
a digest, a boundary count, a traceback -- fails whatever the total says.
"""

import importlib.util
import os

import pytest

_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, os.pardir, "benchmarks", "host_cost.py"
)


@pytest.fixture(scope="module")
def host_cost():
    spec = importlib.util.spec_from_file_location("host_cost", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


EXPECTED = {"digest": "d", "exact": {"total.pycalls_per_op": 137.75, "events_per_op": 4.0}}


def record(total):
    return {"metrics": {"total.pycalls_per_op": {"value": total}}}


def test_lower_counts_pass_and_are_tabulated(host_cost):
    stderr = (
        "run.py: warm_call: net.pycalls_per_op = 6.0, expected exactly 12.0\n"
        "run.py: warm_call: total.pycalls_per_op = 88.75, expected exactly 137.75\n"
    )
    moved, problems = host_cost.judge("warm_call", stderr, record(88.75), EXPECTED)
    assert problems == []
    assert moved == [
        ("net.pycalls_per_op", 12.0, 6.0),
        ("total.pycalls_per_op", 137.75, 88.75),
    ]


def test_an_unmoved_run_passes(host_cost):
    assert host_cost.judge("warm_call", "", record(137.75), EXPECTED) == ([], [])


def test_a_higher_total_fails(host_cost):
    stderr = "run.py: warm_call: total.pycalls_per_op = 140.0, expected exactly 137.75\n"
    _, problems = host_cost.judge("warm_call", stderr, record(140.0), EXPECTED)
    assert len(problems) == 1 and "above expected" in problems[0]


@pytest.mark.parametrize(
    "line",
    [
        "run.py: warm_call: sim digest 0123456789ab != expected ba9876543210 "
        "(a simulated statistic moved)",
        "run.py: warm_call: events_per_op = 5.0, expected exactly 4.0",
        "run.py: warm_call: 3 of 163840 ops failed verification",
        "Traceback (most recent call last):",
        "run.py: cold_bind: net.pycalls_per_op = 6.0, expected exactly 12.0",
    ],
)
def test_any_other_line_fails_even_under_a_lower_total(host_cost, line):
    _, problems = host_cost.judge("warm_call", line + "\n", record(88.75), EXPECTED)
    assert problems == [f"not a host-cost line: {line}"]


def test_a_missing_record_fails(host_cost):
    _, problems = host_cost.judge("warm_call", "", None, EXPECTED)
    assert problems == ["run.py wrote no record"]
