"""Every example script runs clean end-to-end (regression guard).

The examples are part of the public deliverable; these tests execute them
in-process (capturing stdout) so a refactor that breaks an example breaks
the suite.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": ["Increment(5)  -> 5", "state preserved"],
    "site_autonomy.py": [
        "REFUSED (SecurityDenied)",
        "REFUSED (RequestRefused)",
        "ADMITTED",
    ],
    "replication_fault_tolerance.py": [
        "masked the failure",
        "repaired group",
        "coordinator Get('answer') -> 42",
    ],
    "migration_demo.py": [
        "B's state survived",
        "A answers from its new home",
    ],
    "wide_area_binding.py": [
        "100% success",
        "tree:",
    ],
    "distributed_files.py": [
        "reactivated",
        "speedup from locality",
    ],
    # One marker per group of interfaces the tour covers.
    "paper_interfaces.py": [
        "[ok] §3.4 Fig.8  spmd      Activate claims 8 nodes",  # host types
        "[ok] §3.4 Fig.8  cm-5      Activate claims 32 nodes",
        "[ok] §3.4 Fig.8  cray-t3d  Activate claims 2 nodes",
        "[ok] §3.4 Fig.8  unix-smmp puts the processor number",
        "[ok] §2.2        split_jurisdiction",  # split
        "[ok] §3.3        Object Address pack/unpack",  # address format
        "[ok] §2.4 §3.2   Iam()",  # Iam/MayI
        "[ok] §2.4        MayI('Greet') -> True",
        "[ok] §2.3        Reap()",  # Reap
        "[ok] §4.1        BindPath/LookupPath",  # contexts
        "[ok] §2.1 §3.2   Create() with no hints",  # class-mandatory calls
        "[ok] §3.8        Delete() drops the instance's table row",
        "[ok] §2.1.1      Derive(string) then InheritFrom(LOID, list)",
        "[ok] §4.3        AddReplica(LOID)",
        "[ok] §3.7        SetSchedulingAgent",
        "== 0 failed;",
    ],
}


@pytest.mark.parametrize("script", sorted(EXPECTED_MARKERS), ids=lambda s: s[:-3])
def test_example_runs_and_prints_its_story(script):
    path = EXAMPLES_DIR / script
    assert path.exists(), f"missing example {script}"
    buffer = io.StringIO()
    argv = sys.argv
    sys.argv = [str(path)]
    try:
        with redirect_stdout(buffer):
            runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = argv
    output = buffer.getvalue()
    for marker in EXPECTED_MARKERS[script]:
        assert marker in output, f"{script}: expected {marker!r} in output"
    assert "Traceback" not in output
