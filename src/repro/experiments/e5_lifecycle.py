"""E5 -- the object lifecycle of Fig. 11: activate / deactivate / migrate.

Claim (sections 3.1, 3.8): magistrates move objects between Active and
Inert states through Object Persistent Representations without losing
state; Copy() replicates an OPR to another magistrate; Move() -- "Copy()
then Delete()" -- transfers management across jurisdictions, after which
the object continues from exactly where it left off.

The table reports, per operation, the simulated latency and the number of
network messages, plus state-integrity verdicts across repeated cycles.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, count_messages, uniform_sites
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Cycle an object through every lifecycle edge; verify state."""
    recorder = SeriesRecorder(x_label="op")
    result = ExperimentResult(
        experiment="E5",
        title="activation / deactivation / migration (Fig. 11)",
        claim=(
            "objects survive Active→Inert→Active cycles and Copy/Move "
            "between jurisdictions with state intact"
        ),
        recorder=recorder,
    )
    cycles = 3 if quick else 10
    system = LegionSystem.build(
        uniform_sites(3, hosts_per_site=2), seed=seed
    )
    cls = system.create_class("Counter", factory=CounterImpl)
    obj = system.create_instance(cls.loid, context_name="e5/obj")
    loid = obj.loid

    expected = 0
    op_index = 0

    def record(op: str, messages: int, elapsed: float) -> None:
        nonlocal op_index
        op_index += 1
        recorder.add(op_index, **{f"{op}_msgs": messages, f"{op}_ms": elapsed})

    state_ok = True
    for cycle in range(cycles):
        expected = system.call(loid, "Increment", 10)

        row = system.call(cls.loid, "GetRow", loid)
        magistrate = row.current_magistrates[0]

        t0 = system.kernel.now
        _, deact_msgs = count_messages(
            system, lambda: system.call(magistrate, "Deactivate", loid)
        )
        if cycle == 0:
            record("deactivate", deact_msgs, system.kernel.now - t0)

        t0 = system.kernel.now
        _, react_msgs = count_messages(
            system, lambda: system.call(magistrate, "Activate", loid)
        )
        if cycle == 0:
            record("activate", react_msgs, system.kernel.now - t0)

        value = system.call(loid, "Get")
        state_ok = state_ok and (value == expected)

    result.check(
        f"state preserved across {cycles} deactivate/activate cycles",
        state_ok,
        f"final value {expected}",
    )

    # -- Copy: a second magistrate gains an OPR; both appear in the row.
    row = system.call(cls.loid, "GetRow", loid)
    source = row.current_magistrates[0]
    others = [m.loid for m in system.magistrates.values() if m.loid != source]
    copy_target = others[0]
    t0 = system.kernel.now
    _, copy_msgs = count_messages(
        system, lambda: system.call(source, "Copy", loid, copy_target)
    )
    record("copy", copy_msgs, system.kernel.now - t0)
    row = system.call(cls.loid, "GetRow", loid)
    result.check(
        "Copy(): target magistrate joins the Current Magistrate List",
        copy_target in row.current_magistrates,
        f"list={[str(m) for m in row.current_magistrates]}",
    )

    # -- Move: management transfers entirely; object answers afterwards.
    move_target = others[1]
    t0 = system.kernel.now
    _, move_msgs = count_messages(
        system, lambda: system.call(source, "Move", loid, move_target)
    )
    record("move", move_msgs, system.kernel.now - t0)
    value = system.call(loid, "Increment", 1)
    result.check(
        "Move(): object continues with prior state at the new jurisdiction",
        value == expected + 1,
        f"value {value}",
    )
    row = system.call(cls.loid, "GetRow", loid)
    result.check(
        "Move(): source magistrate left the Current Magistrate List",
        source not in row.current_magistrates,
    )
    result.check(
        "vault accounting: exactly the copy-target holds a residual OPR",
        sum(
            j.vault.holds(loid) for j in system.jurisdictions.values()
        ) == 1,
    )
    return result
