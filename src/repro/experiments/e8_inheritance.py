"""E8 -- the relation machinery of Figs. 2-8 and the class types (2.1).

Claims reproduced:

* Create()/Derive()/InheritFrom() establish is-a / kind-of /
  inherits-from exactly as Figs. 3-6 depict, at run time;
* multiple inheritance is the two-step Derive-then-InheritFrom process,
  and instances created afterwards *compose* the base implementations;
* Abstract / Private / Fixed classes refuse the respective operations
  (section 2.1.2);
* "the class object for LegionObject is the only sink in the graph that
  is implied by the union of the kind-of and is-a relations" (2.1.3).

The table reports the cost (simulated ms and messages) of each operation;
the checks are behavioural.
"""

from __future__ import annotations

from repro import errors
from repro.core.class_types import ClassFlavor
from repro.core.object_base import LegionObjectImpl, legion_method
from repro.experiments.common import ExperimentResult, count_messages, uniform_sites
from repro.metrics.recorder import SeriesRecorder
from repro.system.legion import LegionSystem


class NamedImpl(LegionObjectImpl):
    """Base-class implementation contributing a Name() method."""

    def __init__(self) -> None:
        self.name = "anonymous"

    @legion_method("string Name()")
    def get_name(self) -> str:
        return self.name


class GreeterImpl(LegionObjectImpl):
    """Another base: contributes Greet()."""

    def __init__(self) -> None:
        self.greeting = "hello"

    @legion_method("string Greet()")
    def greet(self) -> str:
        return self.greeting


class PoliteImpl(LegionObjectImpl):
    """The deriving class's own implementation: uses both bases' methods
    being present on the same object (same LOID, composed dispatch)."""

    @legion_method("string Introduce()")
    def introduce(self) -> str:
        return "I am composed"

    @legion_method("string Greet()")
    def greet(self) -> str:
        # Overrides GreeterImpl.Greet: own-class methods win.
        return "polite hello"


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Exercise the full inheritance machinery; verify every Fig. 2 rule."""
    recorder = SeriesRecorder(x_label="op")
    result = ExperimentResult(
        experiment="E8",
        title="Create/Derive/InheritFrom and class types (2.1, Figs. 2-8)",
        claim=(
            "run-time inheritance composes future instances; class types "
            "gate the class-mandatory functions; LegionObject is the only "
            "kind-of/is-a sink"
        ),
        recorder=recorder,
    )
    system = LegionSystem.build(uniform_sites(2, hosts_per_site=2), seed=seed)
    relations = system.services.relations
    legion_object = system.core.loid("LegionObject")

    system.services.impls.register("e8.named", NamedImpl)
    system.services.impls.register("e8.greeter", GreeterImpl)
    system.services.impls.register("e8.polite", PoliteImpl)

    # -- Derive (Fig. 4): kind-of edges, one superclass each.
    t0 = system.kernel.now
    named_cls, derive_msgs = count_messages(
        system, lambda: system.create_class("Named", instance_factory="e8.named")
    )
    recorder.add(1, derive_msgs=derive_msgs, derive_ms=system.kernel.now - t0)
    greeter_cls = system.create_class("Greeter", instance_factory="e8.greeter")
    polite_cls = system.create_class("Polite", instance_factory="e8.polite")

    result.check(
        "Derive(): kind-of recorded, exactly one superclass",
        relations.superclass_of(named_cls.loid) == legion_object
        and relations.superclass_of(polite_cls.loid) == legion_object,
    )

    # -- InheritFrom (Figs. 5/6): two-step multiple inheritance.
    t0 = system.kernel.now
    _, inherit_msgs = count_messages(
        system, lambda: system.call(polite_cls.loid, "InheritFrom", named_cls.loid)
    )
    recorder.add(2, inherit_msgs=inherit_msgs, inherit_ms=system.kernel.now - t0)
    system.call(polite_cls.loid, "InheritFrom", greeter_cls.loid)
    result.check(
        "InheritFrom(): a class can inherit from many bases",
        set(map(str, relations.bases_of(polite_cls.loid)))
        == {str(named_cls.loid), str(greeter_cls.loid)},
    )
    iface = system.call(polite_cls.loid, "GetInstanceInterface")
    result.check(
        "InheritFrom(): bases' member functions joined the interface",
        iface.has_method("Name") and iface.has_method("Greet")
        and iface.has_method("Introduce"),
    )

    # -- Create (Fig. 3): is-a; instance composition reflects inheritance.
    t0 = system.kernel.now
    inst, create_msgs = count_messages(
        system, lambda: system.create_instance(polite_cls.loid)
    )
    recorder.add(3, create_msgs=create_msgs, create_ms=system.kernel.now - t0)
    result.check(
        "Create(): is-a recorded, object belongs to exactly one class",
        relations.class_of(inst.loid) == polite_cls.loid,
    )
    result.check(
        "instance composition: own + inherited methods on one LOID",
        system.call(inst.loid, "Introduce") == "I am composed"
        and system.call(inst.loid, "Name") == "anonymous",
    )
    result.check(
        "override: the deriving class's Greet() beats the base's",
        system.call(inst.loid, "Greet") == "polite hello",
    )

    # -- instances created BEFORE an InheritFrom are not retrofitted
    #    ("the composition of *future* instances").
    plain_cls = system.create_class("Plain", instance_factory="e8.named")
    before = system.create_instance(plain_cls.loid)
    system.call(plain_cls.loid, "InheritFrom", greeter_cls.loid)
    after = system.create_instance(plain_cls.loid)
    got_new = system.call(after.loid, "Greet") == "hello"
    try:
        system.call(before.loid, "Greet")
        old_unchanged = False
    except errors.MethodNotFound:
        old_unchanged = True
    result.check(
        "inheritance is active: affects future instances only",
        got_new and old_unchanged,
    )

    # -- class types (2.1.2).
    abstract_cls = system.create_class(
        "AbstractThing", instance_factory="e8.named", flavor=ClassFlavor.ABSTRACT
    )
    try:
        system.call(abstract_cls.loid, "Create", {})
        abstract_ok = False
    except errors.AbstractClassError:
        abstract_ok = True
    result.check("Abstract class: Create() is empty", abstract_ok)

    private_cls = system.create_class(
        "PrivateThing", instance_factory="e8.named", flavor=ClassFlavor.PRIVATE
    )
    try:
        system.call(private_cls.loid, "Derive", "Sub", {})
        private_ok = False
    except errors.PrivateClassError:
        private_ok = True
    result.check("Private class: Derive() is empty", private_ok)
    system.call(private_cls.loid, "Create", {})  # instances still fine

    fixed_cls = system.create_class(
        "FixedThing", instance_factory="e8.named", flavor=ClassFlavor.FIXED
    )
    try:
        system.call(fixed_cls.loid, "InheritFrom", greeter_cls.loid)
        fixed_ok = False
    except errors.FixedClassError:
        fixed_ok = True
    result.check("Fixed class: InheritFrom() is empty", fixed_ok)

    # -- the sink invariant (2.1.3).
    sinks = relations.sinks()
    result.check(
        "LegionObject is the only kind-of/is-a sink",
        sinks == [legion_object],
        f"sinks={[str(s) for s in sinks]}",
    )
    return result
