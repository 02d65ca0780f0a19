"""E11 -- site autonomy: jurisdictions enforce their own trust (2.2, Fig. 9).

Claim: "sites can offer their resources to Legion, and can insist that
they be managed only by objects that the sites trust ...  The DOE can
write its own Magistrate, and insist via the class mechanism that all
objects that the DOE owns execute only on Magistrates that it trusts.
Further, it can ensure that their Magistrates only use Host Objects that
have been certified."

Method: a three-site system where the "doe" site runs a magistrate
subclass admitting only certified implementations and trusted principals.
Untrusted creations are refused at the boundary; the same requests succeed
at the open site; the refusals are invisible to other traffic.
"""

from __future__ import annotations

from typing import Set

from repro import errors
from repro.experiments.common import ExperimentResult, uniform_sites
from repro.jurisdiction.magistrate import MagistrateImpl
from repro.metrics.recorder import SeriesRecorder
from repro.persistence.opr import OPRecord
from repro.security.mayi import TrustSetPolicy
from repro.system.legion import LegionSystem
from repro.workloads.apps import CounterImpl


class DOEMagistrateImpl(MagistrateImpl):
    """Fig. 9's DOEMagistrate: certified implementations only, and a
    responsible-agent trust set enforced through MayI."""

    def __init__(self, jurisdiction, certified: Set[str]) -> None:
        super().__init__(jurisdiction)
        self.certified = set(certified)
        self.trust = TrustSetPolicy()
        self.mayi_policy = self.trust

    def admit_opr(self, opr: OPRecord) -> bool:
        return all(factory in self.certified for factory, _init in opr.factory_chain)


def run(quick: bool = True, seed: int = 0) -> ExperimentResult:
    """Swap in a DOE magistrate; verify boundary enforcement."""
    recorder = SeriesRecorder(x_label="case")
    result = ExperimentResult(
        experiment="E11",
        title="site autonomy via magistrates and hosts (2.2, Fig. 9)",
        claim=(
            "a site's own magistrate refuses untrusted principals and "
            "uncertified implementations; open sites are unaffected"
        ),
        recorder=recorder,
    )
    system = LegionSystem.build(uniform_sites(3, hosts_per_site=2), seed=seed)

    # Replace the 'site1' magistrate implementation with a DOE-style one.
    doe_site = system.sites[1].name
    doe_server = system.magistrates[doe_site]
    old_impl: MagistrateImpl = doe_server.impl
    doe_impl = DOEMagistrateImpl(old_impl.jurisdiction, certified={"app.certified"})
    doe_impl.hosts = list(old_impl.hosts)
    # Hot-swap the implementation behind the same LOID/endpoint (a site
    # re-deploying its magistrate binary in place).
    doe_impl.loid = doe_server.loid
    doe_impl.runtime = doe_server.runtime
    doe_impl.services = doe_server.services
    doe_server.impl = doe_impl

    # User class objects are placed at the open site -- the DOE magistrate
    # (correctly) refuses to host other organisations' class objects too.
    doe_loid = doe_server.loid
    open_magistrate = system.magistrates[system.sites[0].name].loid
    certified_cls = system.create_class(
        "Certified",
        instance_factory="app.certified",
        factory=CounterImpl,
        magistrate=open_magistrate,
    )
    plain_cls = system.create_class(
        "Plain",
        instance_factory="app.plain",
        factory=CounterImpl,
        magistrate=open_magistrate,
    )

    # -- untrusted principal: refused by MayI at the DOE boundary.
    refused_untrusted = False
    try:
        system.call(certified_cls.loid, "Create", {"magistrate": doe_loid})
    except errors.SecurityDenied:
        refused_untrusted = True
    recorder.add(1, untrusted_refused=int(refused_untrusted))
    result.check("untrusted principal refused by DOE magistrate", refused_untrusted)

    # -- trust the console; certified implementation is admitted.
    doe_impl.trust.trust(system.console.loid)
    created = system.call(certified_cls.loid, "Create", {"magistrate": doe_loid})
    ok_certified = system.call(created.loid, "Increment", 1) == 1
    recorder.add(2, certified_admitted=int(ok_certified))
    result.check("trusted principal + certified impl admitted", ok_certified)

    # -- uncertified implementation: refused even for trusted principals.
    refused_uncertified = False
    try:
        system.call(plain_cls.loid, "Create", {"magistrate": doe_loid})
    except errors.RequestRefused:
        refused_uncertified = True
    recorder.add(3, uncertified_refused=int(refused_uncertified))
    result.check(
        "uncertified implementation refused (admit_opr)", refused_uncertified
    )

    # -- the same uncertified creation succeeds at the open site.
    open_obj = system.call(plain_cls.loid, "Create", {"magistrate": open_magistrate})
    ok_open = system.call(open_obj.loid, "Increment", 1) == 1
    recorder.add(4, open_site_ok=int(ok_open))
    result.check("open site accepts what DOE refuses (autonomy is local)", ok_open)

    # -- migration INTO the DOE jurisdiction is also policed.
    refused_import = False
    try:
        system.call(open_magistrate, "Move", open_obj.loid, doe_loid)
    except (errors.RequestRefused, errors.SecurityDenied):
        refused_import = True
    recorder.add(5, import_refused=int(refused_import))
    result.check(
        "DOE refuses migration of uncertified objects into its jurisdiction",
        refused_import,
    )

    # -- host-level refusal: a drained host refuses activations.
    host_loid = system.jurisdictions[system.sites[0].name].host_objects[0]
    system.call(host_loid, "SetAccepting", False)
    refused_host = False
    try:
        system.call(
            plain_cls.loid,
            "Create",
            {"magistrate": open_magistrate, "host": host_loid},
        )
    except errors.RequestRefused:
        refused_host = True
    recorder.add(6, host_refusal=int(refused_host))
    result.check(
        "Host Objects can refuse objects (SetAccepting)", refused_host
    )
    return result
