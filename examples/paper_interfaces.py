#!/usr/bin/env python
"""A tour of the interfaces the paper names, one checked line each.

The Core Legion Object Model is a specification of interfaces: the
class- and object-mandatory member functions (sections 2.1, 2.4), the
Host Object and Magistrate exports (sections 2.3, 3.7-3.9), the Object
Address format (section 3.3), jurisdiction splitting (section 2.2) and
contexts (section 4.1).  This tour builds one small mixed testbed -- a
Unix, an SPMD, a CM-5, a Cray T3D and a UnixSMMP site (Fig. 8) -- and
calls each interface through the simulated wire.  The steps follow an
object's life: boot and place, derive and create, prove identity, save
and restore, crash and reap, rename, replicate, split.  Every line cites
its section and says whether this run agrees with the paper.

Run:  python examples/paper_interfaces.py   (exit 0 iff every check holds)
"""

import pickle
import sys

from repro import (
    AllowAll,
    DenyAll,
    LegionObjectImpl,
    LegionSystem,
    SiteSpec,
    errors,
    legion_method,
    parse_interface,
)
from repro.jurisdiction.split import split_jurisdiction
from repro.naming.context_object import ContextObjectImpl
from repro.naming.loid import LOID
from repro.net.address import ObjectAddress, ObjectAddressElement
from repro.replication.directory import enable_replication

#: site -> host type: one site per Fig. 8 leaf, two hosts each.
SITES = {
    "unix": "unix",
    "spmd": "spmd",
    "cm5": "cm-5",
    "t3d": "cray-t3d",
    "smmp": "unix-smmp",
}


class Counter(LegionObjectImpl):
    """A stateful object that also counts the EVENTs it hears."""

    def __init__(self, start: int = 0) -> None:
        self.value = start
        self.events = 0

    def persistent_attributes(self):
        return ["value", "events"]

    @legion_method("int Increment(int)")
    def increment(self, amount: int) -> int:
        self.value += amount
        return self.value

    @legion_method("int Get()")
    def get(self) -> int:
        return self.value

    @legion_method("int Events()")
    def get_events(self) -> int:
        return self.events

    def handle_event(self, payload, source) -> None:
        self.events += 1


class Greeter(LegionObjectImpl):
    """A base class whose Shout() an inheritor may leave behind."""

    def __init__(self) -> None:
        self.greeting = "hello"

    def persistent_attributes(self):
        return ["greeting"]

    @legion_method("SetGreeting(string)")
    def set_greeting(self, greeting: str) -> None:
        self.greeting = greeting

    @legion_method("string Greet()")
    def greet(self) -> str:
        return self.greeting

    @legion_method("string Shout()")
    def shout(self) -> str:
        return self.greeting.upper()


class Stamp(LegionObjectImpl):
    """A stateless object: its OPR is just its factory reference."""

    @legion_method("string Stamp()")
    def stamp(self) -> str:
        return "stamped"


# ----------------------------------------------------------------- plumbing


class Tour:
    """The testbed plus the checked lines printed so far."""

    def __init__(self) -> None:
        self.system = LegionSystem.build(
            [SiteSpec(site, hosts=2, host_type=kind) for site, kind in SITES.items()],
            seed=1996,
        )
        self.failed = 0
        system = self.system
        self.counter = system.create_class("Counter", factory=Counter)
        self.greeter = system.create_class("Greeter", factory=Greeter)
        self.stamp = system.create_class("Stamp", factory=Stamp)
        #: Counter + Greeter + Stamp, built by the class-mandatory step.
        self.tally = None

    def check(self, section: str, text: str, ok: bool) -> None:
        """Print one checked line."""
        self.failed += not ok
        print(f"  [{'ok' if ok else 'FAIL'}] {section:<11} {text}")

    def call(self, target, method, *args):
        return self.system.call(target, method, *args)

    def magistrate(self, site: str):
        return self.system.magistrates[site].loid

    def create(self, cls, site: str, **hints):
        """Create() an instance of ``cls`` in ``site``'s jurisdiction."""
        return self.system.create_instance(cls.loid, magistrate=self.magistrate(site), **hints)

    def host_of(self, loid):
        """The Host Object implementation running ``loid``, or None."""
        for server in self.system.host_servers.values():
            entry = server.impl.processes.find(loid)
            if entry is not None and not entry.crashed:
                return server.impl
        return None

    def deactivate(self, cls, loid) -> None:
        """Deactivate ``loid`` through the magistrate its class records."""
        row = self.call(cls.loid, "GetRow", loid)
        self.call(row.current_magistrates[0], "Deactivate", loid)

    def refused(self, error, fn) -> bool:
        """Whether ``fn()`` raises ``error``."""
        try:
            fn()
        except error:
            return True
        return False


# -------------------------------------------------------------------- steps


def held(host) -> int:
    """What activations hold on ``host``: SPMD nodes, else process slots."""
    return getattr(host, "nodes_in_use", host.processes.live)


def host_types(tour: Tour) -> None:
    """Activate and Deactivate on each Fig. 8 host type."""
    for site, kind in SITES.items():
        obj = tour.create(tour.counter, site)
        tour.call(obj.loid, "Increment", 7)
        host = tour.host_of(obj.loid)
        claimed = held(host)
        tour.deactivate(tour.counter, obj.loid)
        released = tour.host_of(obj.loid) is None and held(host) == 0
        value = tour.call(obj.loid, "Get")  # an Inert object reactivates
        unit = "nodes" if hasattr(host, "nodes_in_use") else "process slot"
        tour.check(
            "§3.4 Fig.8",
            f"{kind:<9} Activate claims {claimed} {unit}, Deactivate frees it, "
            f"state {value} survives",
            claimed == {"spmd": 8, "cm-5": 32, "cray-t3d": 2}.get(kind, 1)
            and released
            and value == 7,
        )
    host = tour.system.host_servers[tour.system.site_hosts["smmp"][0]].loid
    a, b = (tour.create(tour.counter, "smmp", host=host) for _ in range(2))
    nodes = [a.address.primary().node, b.address.primary().node]
    tour.check(
        "§3.4 Fig.8",
        f"unix-smmp puts the processor number in the address element: nodes {nodes}",
        nodes[0] != nodes[1],
    )
    victim = tour.create(tour.counter, "cm5")
    host = tour.host_of(victim.loid)
    tour.call(tour.counter.loid, "Delete", victim.loid)
    tour.check(
        "§3.4 Fig.8",
        f"cm-5 KillObject (Delete) returns the partition: {host.nodes_in_use} nodes in use",
        host.nodes_in_use == 0,
    )


def interface_language(tour: Tour) -> None:
    """Class interfaces are described in an IDL."""
    obj = tour.create(tour.counter, "unix")
    live = tour.call(obj.loid, "GetInterface")
    declared = parse_interface("interface Counter { int Increment(int); int Get(); }")
    tour.check(
        "§2",
        f"parse_interface: a live Counter conforms to its IDL; "
        f"its own {len(live)}-method IDL text parses back equal",
        live.conforms_to(declared) and parse_interface(live.describe()) == live,
    )


def class_mandatory(tour: Tour) -> None:
    """Create(), Derive(string), InheritFrom(LOID, list) and the §3.7 setters."""
    system = tour.system
    first = tour.call(tour.counter.loid, "Create")
    second = tour.call(tour.counter.loid, "Create")
    tour.check(
        "§2.1 §3.2",
        f"Create() with no hints: class-specific fields {first.loid.class_specific} "
        f"then {second.loid.class_specific}, a sequence",
        second.loid.class_specific == first.loid.class_specific + 1
        and second.loid.class_id == tour.counter.loid.class_id,
    )
    tour.call(tour.counter.loid, "Delete", first.loid)
    never = LOID.for_instance(tour.counter.loid.class_id, 10**6, system.services.secret)
    tour.check(
        "§3.8",
        "Delete() drops the instance's table row; GetBinding then reports "
        "ObjectDeleted for it and UnknownObject for a LOID never issued",
        tour.refused(errors.UnknownObject, lambda: tour.call(tour.counter.loid, "GetRow", first.loid))
        and tour.refused(
            errors.ObjectDeleted, lambda: tour.call(tour.counter.loid, "GetBinding", first.loid)
        )
        and tour.refused(
            errors.UnknownObject, lambda: tour.call(tour.counter.loid, "GetBinding", never)
        ),
    )
    tally = tour.call(tour.counter.loid, "Derive", "Tally")
    tour.call(tally.loid, "InheritFrom", tour.greeter.loid, ["Greet", "SetGreeting"])
    tour.call(tally.loid, "InheritFrom", tour.stamp.loid)
    tour.tally = tally
    obj = tour.create(tally, "unix")
    names = {sig.name for sig in tour.call(obj.loid, "GetInterface")}
    hidden = tour.refused(errors.MethodNotFound, lambda: tour.call(obj.loid, "Shout"))
    tour.check(
        "§2.1.1",
        "Derive(string) then InheritFrom(LOID, list): the instance answers "
        f"{tour.call(obj.loid, 'Greet')!r}, Shout() is not inherited",
        {"Increment", "Greet", "Stamp"} <= names and "Shout" not in names and hidden,
    )
    scheduler = system.standard_classes["StandardScheduler"].loid
    only = [tour.magistrate("unix")]
    tour.call(tally.loid, "SetSchedulingAgent", obj.loid, scheduler)
    tour.call(tally.loid, "SetCandidateMagistrates", obj.loid, only)
    row = tour.call(tally.loid, "GetRow", obj.loid)
    tour.check(
        "§3.7",
        "SetSchedulingAgent and SetCandidateMagistrates rewrite the object's table row",
        row.scheduling_agent == scheduler and row.candidate_magistrates == only,
    )
    core = system.core["LegionObject"]
    binding = tour.call(system.core.loid("LegionClass"), "GetCoreBinding", core.loid)
    tour.check(
        "§4.1.3",
        f"LegionClass.GetCoreBinding(LegionObject) hands out {binding.address}",
        binding.address == core.address,
    )
    state = pickle.loads(tour.call(system.core.loid("LegionClass"), "SaveState"))
    tour.check(
        "§2.1 §3.2",
        f"LegionClass.SaveState() carries its class-id counter "
        f"({state['_next_class_id']}), so a restart reissues no class id",
        state["_next_class_id"] > tally.loid.class_id,
    )


def object_mandatory(tour: Tour) -> None:
    """Iam() verified, MayI() asked, a DenyAll refusal."""
    system = tour.system
    obj = tour.create(tour.tally, "spmd")
    challenge = 0x1E6109
    credentials = tour.call(obj.loid, "Iam", challenge)
    secret = system.services.secret
    tour.check(
        "§2.4 §3.2",
        "Iam() answers the challenge under the LOID's key; a replayed answer fails",
        credentials.loid == obj.loid
        and credentials.verify(challenge, secret)
        and not credentials.verify(challenge + 1, secret),
    )
    asked = tour.call(obj.loid, "MayI", "Greet")
    impl = tour.host_of(obj.loid).processes.get(obj.loid).server.impl
    impl.mayi_policy = DenyAll()  # a composite's policy is its primary part's
    denied = tour.refused(errors.SecurityDenied, lambda: tour.call(obj.loid, "Greet"))
    impl.mayi_policy = AllowAll()
    tour.check(
        "§2.4",
        f"MayI('Greet') -> {asked}; under DenyAll the same call is refused",
        asked is True and denied and tour.call(obj.loid, "Greet") == "hello",
    )


def persistence_and_events(tour: Tour) -> None:
    """A composite's Deactivate -> Activate round trip; EVENT delivery."""
    obj = tour.create(tour.tally, "t3d")
    tour.call(obj.loid, "Increment", 5)
    tour.call(obj.loid, "SetGreeting", "bonjour")
    tour.deactivate(tour.tally, obj.loid)
    inert = tour.host_of(obj.loid) is None
    value, greeting = tour.call(obj.loid, "Get"), tour.call(obj.loid, "Greet")
    tour.check(
        "§3.1 §2.1.1",
        f"a composite's Deactivate -> Activate keeps every part: {value}, {greeting!r}, "
        f"{tour.call(obj.loid, 'Stamp')!r}",
        inert and value == 5 and greeting == "bonjour",
    )
    plain = tour.create(tour.stamp, "t3d")
    row = tour.call(tour.tally.loid, "GetRow", obj.loid)
    console = tour.system.console.runtime
    console.send_event(row.object_address.primary(), ("note", 1))
    console.send_event(plain.address.primary(), ("note", 1))
    tour.system.run()
    tour.check(
        "§2",
        "an EVENT reaches a composite's primary part; a plain object's default "
        "handler ignores it",
        tour.call(obj.loid, "Events") == 1 and tour.call(plain.loid, "Stamp") == "stamped",
    )


def host_exports(tour: Tour) -> None:
    """SetCPUload, SetMemoryUsage and Reap() -> ReportExceptions."""
    system = tour.system
    host = system.host_servers[system.site_hosts["unix"][0]]
    tour.call(host.loid, "SetCPUload", 0.0)
    full = tour.refused(
        errors.NoCapacity, lambda: tour.create(tour.counter, "unix", host=host.loid)
    )
    tour.call(host.loid, "SetCPUload", 64.0)
    admitted = tour.create(tour.counter, "unix", host=host.loid)
    tour.call(host.loid, "SetMemoryUsage", 1 << 30)
    negative = tour.refused(errors.HostError, lambda: tour.call(host.loid, "SetMemoryUsage", -1))
    tour.check(
        "§3.9",
        "SetCPUload(0) refuses the next Activate, SetCPUload(64) admits it; "
        "SetMemoryUsage(-1) is refused",
        full and tour.host_of(admitted.loid) is host.impl and negative,
    )
    obj = tour.create(tour.counter, "smmp")
    host = tour.host_of(obj.loid)
    host.crash_object(obj.loid, "segmentation fault")
    reaped = tour.call(host.loid, "Reap")
    magistrate = system.magistrates["smmp"]
    dropped = tour.refused(
        errors.UnknownObject, lambda: tour.call(magistrate.loid, "GetObjectState", obj.loid)
    )
    tour.check(
        "§2.3",
        f"Reap() collects {len(reaped)} crash and reports it to ReportExceptions: "
        "the magistrate logs it and, holding no OPR, stops managing the object",
        [loid for loid, _ in reaped] == [obj.loid]
        and magistrate.impl.exception_log[-1][1:] == (obj.loid, "segmentation fault")
        and dropped,
    )


def binding_agents(tour: Tour) -> None:
    """AddBinding / InvalidateBinding on a site's Binding Agent."""
    system = tour.system
    agent = system.agents["unix"]
    obj = tour.create(tour.counter, "unix")
    stats = agent.impl.agent_stats
    tour.call(agent.loid, "InvalidateBinding", obj.loid)
    tour.call(agent.loid, "AddBinding", obj)
    before = stats.class_escalations
    served = tour.call(agent.loid, "GetBinding", obj.loid)
    warm = stats.class_escalations == before and served == obj
    tour.call(agent.loid, "InvalidateBinding", obj)
    tour.call(agent.loid, "GetBinding", obj.loid)
    tour.check(
        "§3.6",
        "AddBinding(binding) is served from the cache; InvalidateBinding(binding) "
        "sends the next GetBinding to the class",
        warm and stats.class_escalations == before + 1,
    )


def addresses(tour: Tour) -> None:
    """The Object Address wire form."""
    obj = tour.create(tour.counter, "smmp")
    element = obj.address.primary()
    group = ObjectAddress.replicated(
        [element, ObjectAddressElement.ip(0xC0A80001, 6060, node=3)], k=1
    )
    wire = group.pack()
    tour.check(
        "§3.3",
        f"Object Address pack/unpack round trip: {len(group)} elements in "
        f"{len(wire)} bytes, 36 each, host in the top 32 information bits",
        ObjectAddress.unpack(wire) == group
        and ObjectAddressElement.unpack(element.pack()) == element
        and element.info_bits() >> 224 == element.host
        and len(wire) == 16 + 36 * len(group),
    )


def contexts(tour: Tour) -> None:
    """BindPath / LookupPath across a Mount, surviving a Deactivate."""
    system = tour.system
    cls = system.create_class("ContextObject", factory=ContextObjectImpl)
    root = tour.create(cls, "unix", init={"name": "/"})
    docs = tour.create(cls, "cm5", init={"name": "docs"})
    leaf = tour.create(tour.counter, "t3d")
    tour.call(root.loid, "Mount", "docs", docs.loid)
    tour.call(root.loid, "BindPath", "docs/readme", leaf.loid)
    tour.call(root.loid, "Bind", "notes", leaf.loid)
    listed = tour.call(root.loid, "List")
    tour.deactivate(cls, docs.loid)
    found = tour.call(root.loid, "LookupPath", "docs/readme")
    tour.call(root.loid, "Unbind", "notes")
    gone = tour.refused(errors.ContextError, lambda: tour.call(root.loid, "Lookup", "notes"))
    system.bind_name("tour/readme", leaf.loid)
    local = system.context.unbind("tour/readme")
    tour.check(
        "§4.1",
        f"BindPath/LookupPath across a Mount on another site: {listed}; the path "
        "resolves after its directory was deactivated; Unbind removes a name",
        listed == [("docs", True), ("notes", False)]
        and found == leaf.loid
        and tour.call(docs.loid, "Lookup", "readme") == leaf.loid
        and gone
        and local == leaf.loid,
    )


def replication(tour: Tour) -> None:
    """AddReplica(LOID) regrows a group; catalogs keep their maps."""
    system = tour.system
    directory = enable_replication(system)
    group = tour.call(tour.counter.loid, "CreateReplicated", 3, "first", 1)
    dead = group.address.elements[-1]
    tour.host_of(group.loid).crash_object(group.loid)
    tour.call(tour.counter.loid, "ReportDeadReplica", group.loid, dead)
    grown = tour.call(tour.counter.loid, "AddReplica", group.loid)
    system.run()
    tour.check(
        "§4.3",
        f"AddReplica(LOID) regrows a group that lost a member: "
        f"{len(group.address)} -> 2 -> {len(grown.address)} elements",
        len(grown.address) == 3 and dead not in grown.address.elements,
    )
    catalog = directory.catalogs["unix"]
    catalog_class = tour.system.lookup("classes/ReplicaCatalog")
    index_class = tour.system.lookup("classes/GlobalReplicaIndex")
    tracked = tour.call(catalog.loid, "Tracked")
    under = tour.call(directory.index.loid, "UnderReplicated")
    for cls, loid in ((catalog_class, catalog.loid), (index_class, directory.index.loid)):
        row = tour.call(cls, "GetRow", loid)
        tour.call(row.current_magistrates[0], "Deactivate", loid)
    tour.check(
        "§4.3 §3.1",
        f"a replica catalog ({len(tracked)} group) and the global index "
        f"({len(under)} under-replicated) answer the same after Deactivate",
        tour.call(catalog.loid, "Tracked") == tracked
        and tour.call(directory.index.loid, "UnderReplicated") == under
        and [entry[0] for entry in tracked] == [group.loid],
    )


def jurisdictions(tour: Tour) -> None:
    """split_jurisdiction with every object's state intact."""
    system = tour.system
    values = {}
    for amount in (11, 22, 33, 44):
        obj = tour.create(tour.counter, "unix")
        tour.call(obj.loid, "Increment", amount)
        values[obj.loid] = amount
    suggested = tour.create(tour.counter, "unix")
    hosts = tour.call(tour.magistrate("unix"), "GetHosts")
    target = next(h for h in hosts if h != tour.host_of(suggested.loid).loid)
    tour.deactivate(tour.counter, suggested.loid)
    tour.call(tour.magistrate("unix"), "SuggestPlacement", suggested.loid, target)
    tour.call(suggested.loid, "Get")
    tour.check(
        "§3.7-3.8",
        "SuggestPlacement pins an Inert object's next activation to the host it names",
        tour.host_of(suggested.loid).loid == target,
    )
    parent = system.jurisdictions["unix"]
    child_server = split_jurisdiction(system, "unix", "unix-east")
    child = system.jurisdictions["unix-east"]
    moved = tour.call(child_server.loid, "ManagedCount")
    intact = all(tour.call(loid, "Get") == value for loid, value in values.items())
    tour.check(
        "§2.2",
        f"split_jurisdiction: a child with its own magistrate takes {len(child.host_ids)} "
        f"host and {moved} objects; every object's state is intact",
        child.ancestors() == [parent]
        and [j.name for j in parent.subtree()] == ["unix", "unix-east"]
        and not parent.host_ids & child.host_ids
        and not set(tour.call(parent.magistrate, "GetHosts")) & set(child.host_objects)
        and moved > 0
        and intact,
    )


#: The tour, in the order of an object's life.
STEPS = [
    host_types,
    interface_language,
    class_mandatory,
    object_mandatory,
    persistence_and_events,
    host_exports,
    binding_agents,
    addresses,
    contexts,
    replication,
    jurisdictions,
]


def main() -> None:
    tour = Tour()
    print(f"== the paper's interfaces on a {len(SITES)}-site mixed testbed ==")
    for step in STEPS:
        step(tour)
    print(f"== {tour.failed} failed; {tour.system.kernel.now:.1f} simulated ms ==")
    if tour.failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
