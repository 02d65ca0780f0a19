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
one-line reason; a function that fits no category is cut, with the
tests that only pin it.  It checks reach, not claims: a driver may print
a failed claim, but a driver that raises fails the census.  Usage:

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
        "replication_fault_tolerance", "site_autonomy",
    )],
    *[("path", "benchmarks/ledger/run.py",
       ["--workload", workload, "--seconds", "1", "--trace", "0"]) for workload in (
        "warm_call", "cold_bind", "lifecycle_churn", "scenario_open", "mega_dense",
        "mega_sparse",
    )],
]

CATEGORIES = {
    "paper": "the paper specifies it; the reason cites the section",
    "reference": "tests compare against it",
    "override": "it keeps a contract when its path runs",
    "safety": "an error or recovery path",
    "fuzzer": "the invariant fuzzer's keep list (ROADMAP item 4)",
    "frozen": "a name benchmarks/ledger/ calls",
    "probe": "a read-only accessor of <= 6 lines tests use to observe state",
}

#: ``path::qualname`` -> (category, reason), for every function no driver
#: reaches.  Its length is the ceiling.
ALLOWED: dict[str, tuple[str, str]] = {
    "binding/agent.py::BindingAgentImpl.add_binding": ("paper", "AddBinding(binding), a Binding Agent export (§3.6)"),
    "binding/agent.py::BindingAgentImpl.invalidate_binding": ("paper", "both InvalidateBinding overloads of the Binding Agent (§3.6)"),
    "core/class_clones.py::ClonePool._readdress_clone": ("safety", "a clone reactivated at a new address is re-routed, not lost"),
    "core/class_derivation.py::Derivation.derive_named": ("paper", "the Derive(string) overload of the class-mandatory interface (§2.1)"),
    "core/class_replicas.py::ReplicaGroups.add_replica_default": ("paper", "the AddReplica(LOID) overload (§4.3)"),
    "core/composite.py::CompositeImpl.get_interface": ("override", "a multiply-inherited object's GetInterface is its parts' union"),
    "core/composite.py::CompositeImpl.handle_event": ("override", "a composite's EVENTs reach its primary part"),
    "core/composite.py::CompositeImpl.mayi_policy.setter": ("override", "a composite's MayI policy is its primary part's"),
    "core/composite.py::CompositeImpl.on_deactivating": ("override", "every part hears a composite's deactivation"),
    "core/composite.py::CompositeImpl.restore_state": ("override", "a composite restores every part's state"),
    "core/composite.py::CompositeImpl.save_state": ("override", "a composite saves every part's state"),
    "core/context.py::ImplRegistry.names": ("probe", "the registered factory names"),
    "core/legion_class.py::ClassObjectImpl.add_candidate_magistrate": ("paper", "a class's Candidate Magistrate List grows after a split (§2.2, §3.7)"),
    "core/legion_class.py::ClassObjectImpl.create_default": ("paper", "the Create() overload of the class-mandatory interface (§2.1)"),
    "core/legion_class.py::ClassObjectImpl.set_candidate_magistrates": ("paper", "the class table's Candidate Magistrate List setter (§3.7)"),
    "core/legion_class.py::ClassObjectImpl.set_scheduling_agent": ("paper", "the class table's Scheduling Agent setter (§3.7)"),
    "core/metaclass.py::LegionClassImpl.get_core_binding": ("paper", "LegionClass hands out the bindings it maintains itself (§4.1.3)"),
    "core/metaclass.py::LegionClassImpl.persistent_attributes": ("override", "LegionClass's own state joins its class object's in SaveState"),
    "core/method.py::MethodResult.ok": ("probe", "whether an invocation succeeded"),
    "core/object_base.py::LegionObjectImpl.handle_event": ("override", "the default EVENT handler, which ignores the event"),
    "core/object_base.py::LegionObjectImpl.iam": ("paper", "Iam(), object-mandatory (§2.4)"),
    "core/object_base.py::LegionObjectImpl.may_i": ("paper", "the MayI() check behind every dispatch, object-mandatory (§2.4)"),
    "core/object_base.py::LegionObjectImpl.mayi_method": ("paper", "MayI() on the wire, object-mandatory (§2.4)"),
    "core/object_base.py::LegionObjectImpl.persistent_attributes": ("override", "the default, stateless SaveState field list"),
    "core/relations.py::RelationGraph.all_bases": ("probe", "the transitive inherits-from set"),
    "core/relations.py::RelationGraph.instances_of": ("probe", "a class's is-a sources"),
    "core/relations.py::RelationGraph.subclasses_of": ("probe", "a class's kind-of sources"),
    "experiments/common.py::Experiment.run": ("reference", "the sequential run that run_many's merged reports are compared to"),
    "experiments/common.py::ExperimentResult.passed": ("probe", "whether every check of a result passed"),
    "experiments/e8_inheritance.py::GreeterImpl.persistent_attributes": ("override", "E8's application state joins SaveState"),
    "experiments/e8_inheritance.py::NamedImpl.persistent_attributes": ("override", "E8's application state joins SaveState"),
    "experiments/runner.py::_crashed": ("safety", "a unit that raises is a FAIL with its traceback, not an abort"),
    "flow/credits.py::CreditLedger.has_headroom": ("fuzzer", "kept for the invariant fuzzer (ROADMAP item 4)"),
    "flow/credits.py::CreditWindow.headroom": ("fuzzer", "kept for the invariant fuzzer (ROADMAP item 4)"),
    "health/bands.py::Band.description": ("probe", "a band's one-line meaning"),
    "health/ledger.py::HealthLedger.verify": ("probe", "whether the in-memory chain is intact"),
    "hosts/host_object.py::HostObjectImpl.reap": ("paper", "Reap(): a Host Object reaps objects and reports exceptions (§2.3)"),
    "hosts/host_object.py::HostObjectImpl.set_cpu_load": ("paper", "SetCPUload, a Host Object export (§3.9)"),
    "hosts/host_object.py::HostObjectImpl.set_memory_usage": ("paper", "SetMemoryUsage, a Host Object export (§3.9)"),
    "hosts/host_types.py::CM5HostImpl._partition_size": ("paper", "SPMD, CM-5 and T3D partition admission (Fig. 8, §3.4)"),
    "hosts/host_types.py::CrayT3DHostImpl._partition_size": ("paper", "SPMD, CM-5 and T3D partition admission (Fig. 8, §3.4)"),
    "hosts/host_types.py::SPMDHostImpl._partition_size": ("paper", "SPMD, CM-5 and T3D partition admission (Fig. 8, §3.4)"),
    "hosts/host_types.py::SPMDHostImpl._release": ("paper", "SPMD, CM-5 and T3D partition admission (Fig. 8, §3.4)"),
    "hosts/host_types.py::SPMDHostImpl.activate": ("paper", "SPMD, CM-5 and T3D partition admission (Fig. 8, §3.4)"),
    "hosts/host_types.py::SPMDHostImpl.admit": ("paper", "SPMD, CM-5 and T3D partition admission (Fig. 8, §3.4)"),
    "hosts/host_types.py::SPMDHostImpl.deactivate": ("paper", "SPMD, CM-5 and T3D partition admission (Fig. 8, §3.4)"),
    "hosts/host_types.py::SPMDHostImpl.kill_object": ("paper", "SPMD, CM-5 and T3D partition admission (Fig. 8, §3.4)"),
    "hosts/host_types.py::UnixSMMPHostImpl.assign_node": ("paper", "UnixSMMP node numbers in the address element (Fig. 8, §3.4)"),
    "hosts/host_types.py::UnixSMMPHostImpl.next_node": ("paper", "UnixSMMP node numbers in the address element (Fig. 8, §3.4)"),
    "hosts/process_table.py::ProcessTable.crashed_entries": ("paper", "what Reap() collects (§2.3)"),
    "hosts/process_table.py::ProcessTable.total_cpu_share": ("probe", "the CPU share of live processes"),
    "idl/interface.py::Interface.describe": ("probe", "an interface as IDL text"),
    "idl/interface.py::Interface.methods": ("probe", "an interface's signatures, sorted"),
    "idl/interface.py::Interface.names": ("probe", "an interface's method names, sorted"),
    "idl/interface.py::Interface.restricted_to": ("paper", "selective inheritance keeps named components (§2.1 footnote)"),
    "idl/parser.py::parse_interface": ("paper", "class interfaces are described in an IDL (§2)"),
    "jurisdiction/jurisdiction.py::Jurisdiction.ancestors": ("paper", "jurisdictions nest; a split makes a child (§2.2)"),
    "jurisdiction/jurisdiction.py::Jurisdiction.contains_host": ("probe", "whether a host is in a jurisdiction"),
    "jurisdiction/jurisdiction.py::Jurisdiction.overlaps": ("probe", "whether two jurisdictions share a host"),
    "jurisdiction/jurisdiction.py::Jurisdiction.remove_host": ("paper", "a split moves hosts out of a jurisdiction (§2.2)"),
    "jurisdiction/jurisdiction.py::Jurisdiction.subtree": ("paper", "jurisdictions nest; a split makes a child (§2.2)"),
    "jurisdiction/magistrate.py::MagistrateImpl.remove_host": ("paper", "a split withdraws hosts from their magistrate (§2.2)"),
    "jurisdiction/magistrate.py::MagistrateImpl.report_exceptions": ("paper", "where Reap() reports object exceptions (§2.3)"),
    "jurisdiction/magistrate.py::MagistrateImpl.suggest_placement": ("paper", "a Scheduling Agent's placement hook on a magistrate (§3.7-3.8)"),
    "jurisdiction/split.py::split_jurisdiction": ("paper", "jurisdiction splitting (§2.2)"),
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
    "metrics/recorder.py::SeriesRecorder.xs": ("probe", "a sweep's x axis"),
    "naming/binding.py::Binding.refreshed": ("probe", "the same LOID at a new address or expiry"),
    "naming/binding.py::Binding.valid_at": ("probe", "whether a binding is unexpired at a time"),
    "naming/cache.py::BindingCache.clear": ("probe", "empties a cache so a test starts cold"),
    "naming/cache.py::BindingCache.entries": ("probe", "a cache's entries, LRU first"),
    "naming/context.py::Context.unbind": ("paper", "a context maps names to LOIDs, both ways (§4.1)"),
    "naming/context_object.py::ContextObjectImpl._bind_local": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/context_object.py::ContextObjectImpl.bind": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/context_object.py::ContextObjectImpl.bind_path": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/context_object.py::ContextObjectImpl.list_entries": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/context_object.py::ContextObjectImpl.lookup": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/context_object.py::ContextObjectImpl.lookup_path": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/context_object.py::ContextObjectImpl.mount": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/context_object.py::ContextObjectImpl.persistent_attributes": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/context_object.py::ContextObjectImpl.unbind": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/context_object.py::_split": ("paper", "a context as a Legion object (§1, §4.1)"),
    "naming/loid.py::LOIDAllocator.next_instance": ("paper", "the class-specific field as a sequence number (§3.2)"),
    "naming/loid.py::_loid_setstate": ("safety", "the LOID unpickle hook"),
    "net/address.py::ObjectAddress.pack": ("paper", "Object Address wire form (§3.3)"),
    "net/address.py::ObjectAddress.unpack": ("paper", "Object Address wire form (§3.3)"),
    "net/address.py::ObjectAddressElement.info_bits": ("paper", "Object Address wire form (§3.3)"),
    "net/address.py::ObjectAddressElement.ip": ("paper", "Object Address wire form (§3.3)"),
    "net/address.py::ObjectAddressElement.pack": ("paper", "Object Address wire form (§3.3)"),
    "net/address.py::ObjectAddressElement.unpack": ("paper", "Object Address wire form (§3.3)"),
    "net/message.py::Message.request": ("frozen", "benchmarks/ledger/ calls it"),
    "net/network.py::Network.heal_all": ("probe", "lifts every partition"),
    "net/network.py::Network.is_registered": ("probe", "whether an element has a live endpoint"),
    "persistence/opr.py::OPRecord.size": ("probe", "an OPR's size in bytes"),
    "persistence/storage.py::PersistentStore.list_files": ("probe", "a store's file names"),
    "replication/catalog.py::GlobalReplicaIndexImpl.persistent_attributes": ("override", "the index's state joins SaveState"),
    "replication/catalog.py::GlobalReplicaIndexImpl.under_replicated": ("override", "EvidenceCollector's count when a governed system replicates"),
    "replication/catalog.py::ReplicaCatalogImpl.persistent_attributes": ("override", "a catalog's state joins SaveState"),
    "scenarios/spec.py::_fail": ("safety", "a malformed scenario spec raises with its path"),
    "scheduling/agent.py::SchedulingAgentImpl.choose_magistrate": ("override", "the abstract policy hook"),
    "security/identity.py::Credentials.respond": ("paper", "Iam() challenge-response over the LOID's public key (§2.4, §3.2)"),
    "security/identity.py::Credentials.verify": ("paper", "Iam() challenge-response over the LOID's public key (§2.4, §3.2)"),
    "security/identity.py::verify_identity": ("paper", "Iam() challenge-response over the LOID's public key (§2.4, §3.2)"),
    "security/mayi.py::DenyAll.may_i": ("paper", "a MayI() that refuses (§2.4)"),
    "security/mayi.py::MayIPolicy.may_i": ("override", "the abstract policy hook"),
    "simkernel/kernel.py::Process.alive": ("probe", "whether a process still runs"),
    "simkernel/kernel.py::Process.set_result": ("safety", "only its own generator settles a process"),
    "system/legion.py::LegionSystem.disable_tracing": ("probe", "turns tracing back off"),
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
