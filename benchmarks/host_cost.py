"""The host-cost ratchet: traced call counts may fall, never rise.

``benchmarks/ledger/expected.json`` pins every ``*.pycalls_per_op`` line
exactly, so ``run.py --trace 1`` exits 1 on an *improvement* just as it
does on a regression.  This script is the monotone reading of the same
numbers (ROADMAP item 1), at workload granularity: it runs the ledger's
traced driver once per workload and seed and passes iff

* every line ``run.py`` reports is a ``*.pycalls_per_op`` line -- a moved
  sim digest, boundary count, failed verification or traceback fails; and
* the workload's ``total.pycalls_per_op`` is not above ``expected.json``'s.

It takes no options: every workload of ``BENCHMARK.json`` at every seed
``expected.json`` was cut for (~10 min).  It prints an expected -> now
table of the moved lines and leaves each run's full record and stderr
under ``reports/host-cost/`` for upload.  It reads ``expected.json`` and
never writes it: re-cutting the baseline belongs to the ``benchmark`` PR
that earns it (``run.py --write-expected``).

    python benchmarks/host_cost.py
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "benchmarks", "ledger")
OUT = os.path.join(ROOT, "reports", "host-cost")
TOTAL = "total.pycalls_per_op"

#: One problem line of run.py's exact gate, e.g.
#: ``run.py: warm_call: net.pycalls_per_op = 6.0, expected exactly 12.0``.
_MOVED = re.compile(
    r"^run\.py: (?P<workload>\w+): (?P<metric>[\w.]+\.pycalls_per_op) = "
    r"(?P<now>[-+.\deE]+), expected exactly (?P<expected>[-+.\deE]+)$"
)


def judge(
    workload: str, stderr: str, record: Optional[dict], expected: dict
) -> Tuple[List[Tuple[str, float, float]], List[str]]:
    """One traced run against its ``expected.json`` entry.

    Returns the moved host-cost lines as ``(metric, expected, now)`` rows
    and the problems that fail the run (empty = pass).
    """
    moved: List[Tuple[str, float, float]] = []
    problems: List[str] = []
    for line in filter(None, (raw.rstrip() for raw in stderr.splitlines())):
        match = _MOVED.match(line)
        if match and match["workload"] == workload:
            moved.append((match["metric"], float(match["expected"]), float(match["now"])))
        else:
            problems.append(f"not a host-cost line: {line}")
    if record is None:
        problems.append("run.py wrote no record")
        return moved, problems
    want = expected["exact"][TOTAL]
    now = record["metrics"][TOTAL]["value"]
    if now > want:
        problems.append(f"{TOTAL} = {now!r} is above expected {want!r}")
    return moved, problems


def run_traced(workload: str, seed: str) -> Tuple[str, Optional[dict]]:
    """Run ``run.py``'s traced driver; returns its stderr and full record."""
    record_path = os.path.join(OUT, f"{workload}-seed{seed}.json")
    if os.path.exists(record_path):
        os.remove(record_path)
    proc = subprocess.run(
        [
            sys.executable, os.path.join(LEDGER, "run.py"),
            "--workload", workload, "--seed", seed, "--trace", "1",
            "--direct-batches", "0", "--run", f"host-cost-seed{seed}",
            "--json-out", record_path,
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, check=False,
    )
    with open(os.path.join(OUT, f"{workload}-seed{seed}.stderr"), "w") as fh:
        fh.write(proc.stderr)
    if not os.path.exists(record_path):
        return proc.stderr, None
    with open(record_path) as fh:
        return proc.stderr, json.load(fh)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    with open(os.path.join(LEDGER, "expected.json")) as fh:
        expected: Dict[str, dict] = json.load(fh)
    os.makedirs(OUT, exist_ok=True)

    failed = 0
    for seed in sorted(expected):
        for workload in workloads:
            want = expected[seed][workload]
            stderr, record = run_traced(workload, seed)
            moved, problems = judge(workload, stderr, record, want)
            verdict = "FAIL" if problems else "ok"
            print(f"== {workload} seed {seed}: {verdict}", flush=True)
            for metric, was, now in moved:
                print(f"  {metric:<34} {was:>12.4f} -> {now:>12.4f}  ({now - was:+.4f})")
            if not moved and not problems:
                print(f"  every traced count matches expected.json "
                      f"({TOTAL} = {want['exact'][TOTAL]:.4f})")
            for problem in problems:
                print(f"  host_cost.py: {problem}", file=sys.stderr)
            failed += bool(problems)
    print(f"records: {os.path.relpath(OUT, ROOT)}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
