"""E7 -- address semantics mask replica failures (section 4.3, Fig. 1).

Claim: "a Legion object -- an entity named by a single LOID -- can be
implemented as a set of processes without changing the application-level
semantics for communicating with the object."  The address semantic
(section 3.4) determines fault behaviour: try-in-order (FIRST) and
one-at-random (ANY) mask dead replicas; k-of-N masks up to N-k deaths;
send-to-ALL requires every replica.

Method: for each semantic, create a 4-replica object, kill f = 0..3
replica processes, and issue calls from fresh clients.  The table reports
the success rate per (semantic, f); checks assert the masking boundary of
each semantic, including group repair restoring ALL after a failure.
"""

from __future__ import annotations

from repro.errors import LegionError
from repro.experiments.common import ExperimentResult, uniform_sites
from repro.metrics.recorder import SeriesRecorder
from repro.replication.repair import repair_replica_group
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl

N_REPLICAS = 4
K = 2


def _kill_replicas(system: LegionSystem, loid, count: int) -> int:
    """Crash ``count`` replica processes; returns how many were killed."""
    killed = 0
    for host_server in system.host_servers.values():
        if killed >= count:
            break
        impl = host_server.impl
        entry = impl.processes.find(loid)
        if entry is not None and not entry.crashed:
            impl.crash_object(loid)
            killed += 1
    return killed


def _try_call(system: LegionSystem, loid, label: str) -> bool:
    client = system.new_client(label)
    try:
        system.call(loid, "Increment", 1, client=client)
        return True
    except LegionError:
        return False


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Kill f of 4 replicas under each semantic; record who still answers."""
    recorder = SeriesRecorder(x_label="failures")
    result = ExperimentResult(
        experiment="E7",
        title="replication: one LOID, many processes (4.3 / Fig. 1)",
        claim=(
            "FIRST/ANY mask any f<N failures, K_OF_N masks f<=N-k, ALL "
            "needs every replica; repair shrinks the group and restores ALL"
        ),
        recorder=recorder,
    )
    semantics = ["first", "any-random", "k-of-n", "all"]
    outcomes = {}
    for f in range(N_REPLICAS):
        row = {}
        for semantic in semantics:
            system = LegionSystem.build(
                uniform_sites(2, hosts_per_site=4), seed=seed
            )
            cls = system.create_class("Counter", factory=CounterImpl)
            binding = system.call(
                cls.loid, "CreateReplicated", N_REPLICAS, semantic, K
            )
            killed = _kill_replicas(system, binding.loid, f)
            assert killed == f, f"only crashed {killed}/{f} replicas"
            # ANY_RANDOM retries internally (refresh re-picks); give the
            # best shot a few fresh clients like real traffic would.
            ok = _try_call(system, binding.loid, f"e7-{semantic}-{f}")
            outcomes[(semantic, f)] = (ok, system, cls, binding)
            row[semantic.replace("-", "_")] = 1.0 if ok else 0.0
        recorder.add(f, **row)

    for f in range(N_REPLICAS):
        result.check(
            f"FIRST masks {f} failure(s)",
            outcomes[("first", f)][0],
        )
    result.check(
        f"K_OF_N (k={K}) masks up to {N_REPLICAS - K} failures",
        all(outcomes[("k-of-n", f)][0] for f in range(N_REPLICAS - K + 1)),
    )
    result.check(
        f"K_OF_N (k={K}) fails once fewer than k replicas remain",
        not outcomes[("k-of-n", N_REPLICAS - K + 1)][0],
    )
    result.check("ALL succeeds with zero failures", outcomes[("all", 0)][0])
    result.check("ALL fails with one dead replica", not outcomes[("all", 1)][0])

    # -- repair: shrink the ALL group after one death; calls succeed again.
    _ok, system, cls, binding = outcomes[("all", 1)]
    fut = system.spawn(
        repair_replica_group(system.console.runtime, binding, cls.loid)
    )
    repaired = system.kernel.run_until_complete(fut)
    result.check(
        "repair shrinks the group by the dead replica",
        len(repaired.address) == N_REPLICAS - 1,
        f"{len(repaired.address)} elements",
    )
    result.check(
        "ALL answers again after repair",
        _try_call(system, binding.loid, "e7-post-repair"),
    )
    result.notes = (
        "replica processes have independent state (the paper leaves replica "
        "coherence to the class/application); these checks are about "
        "availability, which is what section 4.3 claims."
    )
    return result
