#!/usr/bin/env python
"""Site autonomy: the DOE magistrate scenario of paper Fig. 9.

"Suppose the Department of Energy (DOE) does not trust university graduate
students to write a Magistrate class that adequately protects its objects.
The DOE can write its own Magistrate, and insist via the class mechanism
that all objects that the DOE owns execute only on Magistrates that it
trusts."

This example builds three organisations -- a university, the DOE, and
NASA -- each with its own jurisdiction.  The DOE replaces its magistrate
with one that (a) admits only certified implementations and (b) runs work
only for principals on its trust list.  We then watch requests succeed and
fail at the right boundaries.

Run:  python examples/site_autonomy.py
"""

from repro import LegionSystem, SiteSpec, TrustSetPolicy, errors
from repro.jurisdiction.magistrate import MagistrateImpl
from repro.workloads.apps import CounterImpl, KVStoreImpl


class DOEMagistrate(MagistrateImpl):
    """Fig. 9's DOEMagistrate: certified implementations, trusted principals."""

    def __init__(self, jurisdiction, certified):
        super().__init__(jurisdiction)
        self.certified = set(certified)
        self.trust = TrustSetPolicy()
        self.mayi_policy = self.trust  # every member function gated

    def admit_opr(self, opr):
        return all(name in self.certified for name, _ in opr.factory_chain)


def swap_magistrate(system, site, new_impl):
    """Redeploy a site's magistrate implementation behind its LOID."""
    server = system.magistrates[site]
    new_impl.hosts = list(server.impl.hosts)
    new_impl.loid = server.loid
    new_impl.runtime = server.runtime
    new_impl.services = server.services
    server.impl = new_impl
    return server.loid


def expect(label, fn, error=None):
    try:
        fn()
        outcome = "ADMITTED" if error is None else f"!! expected {error.__name__}"
    except errors.LegionError as exc:
        ok = error is not None and isinstance(exc, error)
        outcome = f"REFUSED ({type(exc).__name__})" if ok else f"!! {exc}"
    print(f"   {label:<58} {outcome}")


def main() -> None:
    system = LegionSystem.build(
        [SiteSpec("university", hosts=2), SiteSpec("doe", hosts=2), SiteSpec("nasa", hosts=2)],
        seed=1995,
    )
    print("== three organisations, three jurisdictions ==")
    for name, j in system.jurisdictions.items():
        print(f"   {name}: hosts={sorted(j.host_ids)} magistrate={j.magistrate}")

    # The DOE redeploys its magistrate with its own trust policy.
    doe = swap_magistrate(
        system,
        "doe",
        DOEMagistrate(
            system.jurisdictions["doe"],
            certified={"app.certified-counter"},
        ),
    )
    university = system.magistrates["university"].loid

    # User classes live at the open university site.
    certified_cls = system.create_class(
        "CertifiedCounter",
        instance_factory="app.certified-counter",
        factory=CounterImpl,
        magistrate=university,
    )
    plain_cls = system.create_class(
        "PlainKV",
        instance_factory="app.plain-kv",
        factory=KVStoreImpl,
        magistrate=university,
    )

    print("\n== before the DOE trusts anyone ==")
    expect(
        "console creates certified object at DOE",
        lambda: system.call(certified_cls.loid, "Create", {"magistrate": doe}),
        errors.SecurityDenied,
    )

    print("\n== the DOE adds the console to its trust list ==")
    system.magistrates["doe"].impl.trust.trust(system.console.loid)
    expect(
        "console creates certified object at DOE",
        lambda: system.call(certified_cls.loid, "Create", {"magistrate": doe}),
    )
    expect(
        "console creates UNCERTIFIED object at DOE",
        lambda: system.call(plain_cls.loid, "Create", {"magistrate": doe}),
        errors.RequestRefused,
    )
    expect(
        "the same uncertified object at the university",
        lambda: system.call(plain_cls.loid, "Create", {"magistrate": university}),
    )

    print("\n== migration into the DOE is policed too ==")
    outsider = system.call(plain_cls.loid, "Create", {"magistrate": university})
    expect(
        "Move(uncertified object, DOE magistrate)",
        lambda: system.call(university, "Move", outsider.loid, doe),
        errors.RequestRefused,
    )

    print("\n== a stranger principal is refused even for certified work ==")
    stranger = system.new_client("grad-student", site="university")
    expect(
        "stranger creates certified object at DOE",
        lambda: system.call(
            certified_cls.loid, "Create", {"magistrate": doe}, client=stranger
        ),
        errors.SecurityDenied,
    )

    print("\n== host-level autonomy: a host drains itself ==")
    host = system.jurisdictions["university"].host_objects[0]
    system.call(host, "SetAccepting", False)
    expect(
        "create with a drained host suggested",
        lambda: system.call(
            plain_cls.loid, "Create", {"magistrate": university, "host": host}
        ),
        errors.RequestRefused,
    )
    print("\nAutonomy is local: the DOE's rules never affected the other sites.")


if __name__ == "__main__":
    main()
