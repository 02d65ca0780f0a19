"""E4 -- cloning relieves hot class objects (section 5.2.2).

Claim: "the problem of popular class objects becoming bottlenecks can be
alleviated by 'cloning' class objects when they become heavily used.  The
cloned class is derived from the heavily used class without changing the
interface in any way.  New instantiation and derivation requests are
passed to the cloned object, making it responsible for the new objects.
Further, several clones can exist simultaneously, with the different
clones residing in different domains."

Two client behaviours are measured:

* **naive** -- clients keep calling the original class; it forwards
  Create() to clones round-robin.  Correctness is preserved and the
  *work* moves, but the original still sees every request envelope.
* **clone-aware** -- clients fetch GetClonePool() once and spread their own
  requests over {original} ∪ clones, the paper's "different clones in
  different domains" model.  The hot object's request load drops by
  ~(clones+1)×.

The table reports the max per-class-object request count for each clone
count under both behaviours, plus interface identity checks.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, uniform_sites
from repro.metrics.counters import ComponentKind
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl


def _creation_burst(n_clones: int, n_creates: int, clone_aware: bool, seed: int):
    system = LegionSystem.build(uniform_sites(2, hosts_per_site=3), seed=seed)
    hot = system.create_class("HotClass", factory=CounterImpl)

    clone_bindings = []
    for _i in range(n_clones):
        clone_bindings.append(system.call(hot.loid, "Clone"))

    hot_iface = system.call(hot.loid, "GetInstanceInterface")
    identical = all(
        system.call(c.loid, "GetInstanceInterface").equivalent_to(hot_iface)
        for c in clone_bindings
    )

    # Clone-aware clients learn the pool once, then go direct.
    pool = [hot] + (system.call(hot.loid, "GetClonePool")[1][1:] if clone_aware else [])

    system.reset_measurements()
    for i in range(n_creates):
        if clone_aware:
            target = pool[i % len(pool)]
            system.call(target.loid, "Create", {"no_delegate": True})
        else:
            system.call(hot.loid, "Create", {})

    max_load = system.services.metrics.max_by_kind(ComponentKind.CLASS_OBJECT)
    return max_load, identical


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Compare hot-class request load across clone counts and behaviours."""
    recorder = SeriesRecorder(x_label="clones")
    result = ExperimentResult(
        experiment="E4",
        title="class cloning relieves hot classes (5.2.2)",
        claim=(
            "with clients spread over interface-identical clones, the max "
            "per-class-object load drops by ~(clones+1)x"
        ),
        recorder=recorder,
    )
    n_creates = 24 if quick else 60
    aware_loads = {}
    for n_clones in (0, 1, 3):
        naive_load, identical = _creation_burst(n_clones, n_creates, False, seed)
        aware_load, _ = _creation_burst(n_clones, n_creates, True, seed)
        aware_loads[n_clones] = aware_load
        recorder.add(n_clones, naive=naive_load, clone_aware=aware_load)
        if n_clones > 0:
            result.check(
                f"{n_clones} clone(s): instance interface unchanged", identical
            )

    result.check(
        "1 clone roughly halves the hottest class load",
        aware_loads[1] <= 0.7 * aware_loads[0],
        f"{aware_loads[1]} vs {aware_loads[0]}",
    )
    result.check(
        "3 clones cut the hottest class load to ~1/4",
        aware_loads[3] <= 0.45 * aware_loads[0],
        f"{aware_loads[3]} vs {aware_loads[0]}",
    )
    result.notes = (
        "naive clients still funnel request envelopes through the original "
        "(it forwards the work); the claim's full effect needs clone-aware "
        "request spreading, as the paper's 'different domains' implies."
    )
    return result
