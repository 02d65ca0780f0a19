"""The quick sweep prints ``experiments_output.txt``, wall times aside.

The committed file is the oracle every refactor is held to: the session's
quick sweep (all experiments, seed 0, ``jobs=1``), rendered as
``python -m repro.experiments --quick`` prints it, must equal it byte for
byte once the per-experiment wall column is cut -- the same mask the
ledger's ``quick_sweep`` workload applies.  The oracle was cut on CPython
3.11, so the comparison runs there only (float formatting and hash-seeded
iteration are only promised on the interpreter it was made with).
"""

import re
import sys
from pathlib import Path

import pytest

from repro.experiments.runner import render_summary

pytestmark = pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="experiments_output.txt was cut on CPython 3.11",
)

ORACLE = Path(__file__).resolve().parents[2] / "experiments_output.txt"
#: The summary table's wall column, as ``benchmarks/ledger/workloads.py``'s
#: ``mask_wall`` cuts it.
WALL = re.compile(r"^(  (?:PASS|FAIL)  .*?)\s+[0-9.]+s$", re.MULTILINE)


def test_the_quick_sweep_prints_the_oracle(quick_sweep):
    outcomes = list(quick_sweep.values())
    printed = "".join(outcome.report + "\n\n" for outcome in outcomes)
    printed += render_summary(outcomes, multi_seed=False) + "\n"
    assert WALL.sub(r"\1", printed) == WALL.sub(r"\1", ORACLE.read_text())
