"""The reach census: code that only tests call is named, and can only shrink.

Every driver the repository ships -- the quick sweep, the subsystem arms,
the ledger verifier, the mega and traced arms, the examples and the
ledger workloads (``DRIVERS``) -- runs in a child interpreter under a
``sys.setprofile`` hook that records the ``call`` events of every code
object under ``src/repro``.  Every ``def`` in ``src/repro`` is listed by
AST (dunders skipped; a decorated function is keyed at its first
decorator's line, which is its ``co_firstlineno``).  A ``def`` no driver
calls is *unreached*.

The census fails when an unreached function is not in ``ALLOWED``, and
when an ``ALLOWED`` entry is reached: a stale entry must be removed, so
the table only shrinks.  Each entry names one of ``CATEGORIES`` and a
one-line reason; a function that fits no category gets a driver (an
interface the paper names is driven by ``examples/paper_interfaces.py``)
or is cut, and a test that read state through it reads the state
directly.  It checks reach, not claims: a driver may print a failed
claim, but a driver that raises fails the census.  Usage:

    PYTHONPATH=src python benchmarks/reach_census.py

(stdlib only, ~3 min on 2 CPUs; every driver runs at ``--jobs 1`` so no
call happens in a pool worker the hook cannot see).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: (kind, target, argv): ``module`` runs ``python -m target``, ``path``
#: runs the file.  ``{dir}`` is one scratch directory shared by the run,
#: so the verifier reads the ledger the subsystem arms wrote.
SWEEP = ("module", "repro.experiments")
DRIVERS = [
    (*SWEEP, ["--quick", "--jobs", "1"]),
    (*SWEEP, ["e13", "e14", "e15", "e16", "e17", "e18", "--quick", "--faults", "2",
              "--governor", "4", "--overload", "6", "--autoscale", "1", "--replicas", "3",
              "--report", "{dir}"]),
    ("module", "repro.health.verify", ["{dir}/e17-ledger-seed0.jsonl"]),
    (*SWEEP, ["e9", "e18", "--quick", "--mega", "100000"]),
    (*SWEEP, ["e1", "e3", "e9", "e15", "e17", "--quick", "--trace", "{dir}"]),
    *[("path", f"examples/{name}.py", []) for name in (
        "quickstart", "wide_area_binding", "migration_demo", "distributed_files",
        "replication_fault_tolerance", "site_autonomy", "paper_interfaces",
    )],
    *[("path", "benchmarks/ledger/run.py",
       ["--workload", workload, "--seconds", "1", "--trace", "0"]) for workload in (
        "warm_call", "cold_bind", "lifecycle_churn", "scenario_open", "mega_dense",
        "mega_sparse",
    )],
]

CATEGORIES = {
    "reference": "tests compare against it",
    "override": "an abstract hook; every concrete subclass overrides it",
    "safety": "an error or recovery path",
    "fuzzer": "the invariant fuzzer's keep list (ROADMAP item 4)",
    "frozen": "a name benchmarks/ledger/ calls",
}

#: ``path::qualname`` -> (category, reason), for every function no driver
#: reaches.  Its length is the ceiling.
ALLOWED: dict[str, tuple[str, str]] = {
    "core/class_clones.py::ClonePool._readdress_clone": ("safety", "a clone reactivated at a new address is re-routed, not lost"),
    "experiments/common.py::Experiment.run": ("reference", "the sequential run that run_many's merged reports are compared to"),
    "experiments/runner.py::_crashed": ("safety", "a unit that raises is a FAIL with its traceback, not an abort"),
    "flow/credits.py::CreditLedger.has_headroom": ("fuzzer", "kept for the invariant fuzzer (ROADMAP item 4)"),
    "flow/credits.py::CreditWindow.headroom": ("fuzzer", "kept for the invariant fuzzer (ROADMAP item 4)"),
    "megascale/reference.py::RefLedger.settled": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine._demote": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine._escalated_call": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine._promote": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine.band_histogram": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine.demote_all": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine.demote_idle": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine.extend": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine.settled": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine.tick": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/reference.py::ReferenceMachine.value_checksum": ("reference", "the loop model the columnar kernels are compared to"),
    "megascale/scenario.py::MegaReport.render": ("reference", "the rich-object backend of the differential harness"),
    "megascale/scenario.py::_instance_servers": ("reference", "the rich-object backend of the differential harness"),
    "megascale/scenario.py::differential_spec": ("reference", "the rich-object backend of the differential harness"),
    "megascale/scenario.py::run_rich": ("reference", "the rich-object backend of the differential harness"),
    "megascale/scenario.py::run_rich.<locals>.one_call": ("reference", "the rich-object backend of the differential harness"),
    "net/message.py::Message.request": ("frozen", "benchmarks/ledger/ calls it"),
    "scenarios/spec.py::_fail": ("safety", "a malformed scenario spec raises with its path"),
    "scheduling/agent.py::SchedulingAgentImpl.choose_magistrate": ("override", "the abstract policy hook"),
    "security/mayi.py::MayIPolicy.may_i": ("override", "the abstract policy hook"),
    "simkernel/kernel.py::Process.set_result": ("safety", "only its own generator settles a process"),
    "workloads/generators.py::SessionLoopDriver._client_loop": ("override", "the abstract client loop"),
}


# ------------------------------------------------------------- definitions


def definitions() -> dict[str, tuple[str, int]]:
    """``path::qualname`` -> (path, first line) for every non-dunder def."""
    found: dict[str, tuple[str, int]] = {}

    def visit(node: ast.AST, rel: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    decorators = child.decorator_list
                    first = decorators[0].lineno if decorators else child.lineno
                    key = f"{rel}::{prefix}{child.name}"
                    if decorators and getattr(decorators[0], "attr", "") in ("setter", "deleter"):
                        key = f"{key}.{decorators[0].attr}"
                    name, n = key, 1
                    while name in found:  # one def per branch of an ``if``
                        n += 1
                        name = f"{key}#{n}"
                    found[name] = (rel, first)
                visit(child, rel, f"{prefix}{child.name}.<locals>.")
            else:
                visit(child, rel, prefix)

    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        visit(ast.parse(path.read_text(), str(path)), rel, "")
    return found


# ------------------------------------------------------------------ drivers

#: Runs in the child: hook, run one driver, dump (path, first line) pairs.
_CHILD = r"""
import json, os, runpy, sys, threading
src, out, kind, target, *argv = sys.argv[1:]
seen = set()
def hook(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
sys.argv = [target, *argv]
threading.setprofile(hook)
sys.setprofile(hook)
try:
    if kind == "module":
        runpy.run_module(target, run_name="__main__", alter_sys=True)
    else:
        runpy.run_path(target, run_name="__main__")
except SystemExit:
    pass
finally:
    sys.setprofile(None)
    threading.setprofile(None)
    reached = set()
    for code in seen:
        path = os.path.realpath(code.co_filename)
        if path.startswith(src + os.sep):
            reached.add((os.path.relpath(path, src).replace(os.sep, "/"), code.co_firstlineno))
    with open(out, "w") as fh:
        json.dump(sorted(reached), fh)
"""


def run_driver(kind: str, target: str, argv: list[str], scratch: str) -> set[tuple[str, int]]:
    """The (path, first line) of every ``src/repro`` code object one driver calls."""
    argv = [arg.replace("{dir}", scratch) for arg in argv]
    out = os.path.join(scratch, "reached.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    ))
    src = os.path.realpath(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, src, out, kind, target, *argv],
        cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        check=False,
    )
    if proc.returncode != 0 or "Traceback (most recent call last)" in proc.stderr:
        raise RuntimeError(
            f"driver {target} {' '.join(argv)} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    with open(out) as fh:
        return {tuple(pair) for pair in json.load(fh)}


def census(defs: dict[str, tuple[str, int]], reached: set[tuple[str, int]]) -> list[str]:
    """The census's findings: unreached and not allowed, allowed and reached."""
    unreached = {key for key, site in defs.items() if site not in reached}
    problems = [f"unreached and not in ALLOWED: {key}" for key in sorted(unreached - ALLOWED.keys())]
    problems += [
        f"in ALLOWED but reached (remove the entry): {key}"
        for key in sorted(ALLOWED.keys() & (defs.keys() - unreached))
    ]
    problems += [f"in ALLOWED but no such def: {key}" for key in sorted(ALLOWED.keys() - defs.keys())]
    return problems


def main() -> int:
    defs = definitions()
    reached: set[tuple[str, int]] = set()
    with tempfile.TemporaryDirectory() as scratch:
        for kind, target, argv in DRIVERS:
            print(f"reach_census: {target} {' '.join(argv)}", flush=True)
            reached |= run_driver(kind, target, argv, scratch)
    problems = census(defs, reached)
    unreached = sum(1 for site in defs.values() if site not in reached)
    print(f"reach_census: {len(defs)} functions, {unreached} unreached, "
          f"{len(ALLOWED)} allowed")
    for problem in problems:
        print(f"reach_census: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
