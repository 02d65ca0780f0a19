"""E10 -- bootstrap: bringing up core objects (section 4.2.1).

Claim: the chicken-and-egg of creation is broken by starting core objects
"from the command line": the Abstract classes exactly once, Host Objects
and Magistrates per resource, each of which then *contacts its class* to
become locatable through the normal binding mechanism.  After bring-up,
ordinary creation works immediately.

The table sweeps site count and reports bring-up cost (events, messages,
simulated ms) and the time to the first user object; checks verify the
registration side-effects the paper requires.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, uniform_sites
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Bring systems up from nothing; verify registrations and first use."""
    recorder = SeriesRecorder(x_label="sites")
    result = ExperimentResult(
        experiment="E10",
        title="bootstrap: core objects started outside Legion (4.2.1)",
        claim=(
            "core classes start exactly once; hosts and magistrates "
            "register with their classes; normal creation works right after"
        ),
        recorder=recorder,
    )
    sweep = [1, 2, 4] if quick else [1, 2, 4, 8, 16]
    last_system = None
    for n_sites in sweep:
        system = LegionSystem.build(
            uniform_sites(n_sites, hosts_per_site=2), seed=seed
        )
        bringup_events = system.kernel.events_executed
        bringup_msgs = system.network.stats.messages_sent
        bringup_ms = system.kernel.now

        t0 = system.kernel.now
        cls = system.create_class("Counter", factory=CounterImpl)
        first = system.create_instance(cls.loid)
        first_object_ms = system.kernel.now - t0
        value = system.call(first.loid, "Increment", 1)
        assert value == 1

        recorder.add(
            n_sites,
            bringup_msgs=bringup_msgs,
            bringup_events=bringup_events,
            bringup_ms=bringup_ms,
            first_object_ms=first_object_ms,
        )
        last_system = system

    system = last_system
    n_sites = sweep[-1]

    # -- every host object registered with its class (UnixHost).
    unix_host_cls = system.standard_classes["UnixHost"].impl
    result.check(
        "every Host Object entered its class's logical table",
        len(unix_host_cls.table.instances()) == n_sites * 2,
        f"{len(unix_host_cls.table.instances())} rows",
    )
    # -- every magistrate registered with StandardMagistrate.
    mag_cls = system.standard_classes["StandardMagistrate"].impl
    result.check(
        "every Magistrate entered its class's logical table",
        len(mag_cls.table.instances()) == n_sites,
        f"{len(mag_cls.table.instances())} rows",
    )
    # -- registered infrastructure is locatable via the normal mechanism.
    a_host = unix_host_cls.table.instances()[0].loid
    state = system.call(a_host, "GetState")
    result.check(
        "a bootstrap-registered Host Object resolves and answers",
        state.process_count >= 0,
    )
    # -- the cores registered with LegionClass (walk termination).
    legion_class = system.core.legion_class
    result.check(
        "all six core classes directly locatable through LegionClass",
        len(legion_class.direct_bindings) == 6,
        f"{len(legion_class.direct_bindings)} direct bindings",
    )
    # -- bring-up cost is linear-ish in sites (no super-linear blow-up).
    slope = recorder.slope("bringup_msgs", log_log=True)
    result.check(
        "bring-up message cost grows ~linearly with sites",
        slope < 1.3,
        f"log-log slope {slope:.3f}",
    )
    return result
