"""Jurisdiction splitting (paper section 2.2).

"If a Jurisdiction's resources impose a substantial load on its
Magistrate, the Jurisdiction can be split, and a new Magistrate can be
created to take over responsibility for some of the resources and
objects."

:func:`split_jurisdiction` performs that operation on a live system:

1. a child Jurisdiction is created (jurisdictions "can be organized to
   form hierarchies") with its own vault;
2. a chosen subset of the hosts transfers: the old magistrate releases
   them, the new one adopts them, and the Host Objects' reporting line
   changes;
3. objects the old magistrate manages *on the transferred hosts* are
   Move()d to the new magistrate -- the standard migration protocol, no
   special cases;
4. the new magistrate registers with its class like any bootstrap-started
   magistrate (section 4.2.1), becoming locatable and schedulable.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import LegionError
from repro.core.server import ObjectServer
from repro.jurisdiction.jurisdiction import Jurisdiction
from repro.jurisdiction.magistrate import MagistrateImpl
from repro.metrics.counters import ComponentKind
from repro.naming.loid import LOID
from repro.persistence.storage import PersistentStore
from repro.system.bootstrap import start_out_of_band


def split_jurisdiction(
    system,
    site: str,
    new_name: Optional[str] = None,
    hosts_to_move: Optional[List[LOID]] = None,
) -> ObjectServer:
    """Split ``site``'s jurisdiction; returns the new magistrate's server.

    ``hosts_to_move`` selects the transferred Host Objects (default: the
    second half of the jurisdiction's hosts).  Raises
    :class:`~repro.errors.LegionError` when the split would leave either
    side without hosts.
    """
    old_jurisdiction = system.jurisdictions[site]
    old_magistrate_server = system.magistrates[site]
    old_impl: MagistrateImpl = old_magistrate_server.impl
    new_name = new_name or f"{site}-split"
    if new_name in system.jurisdictions:
        raise LegionError(f"jurisdiction {new_name!r} already exists")

    all_hosts = list(old_jurisdiction.host_objects)
    if hosts_to_move is None:
        hosts_to_move = all_hosts[len(all_hosts) // 2 :]
    if not hosts_to_move or len(hosts_to_move) >= len(all_hosts):
        raise LegionError(
            "a split must leave at least one host on each side "
            f"(moving {len(hosts_to_move)} of {len(all_hosts)})"
        )

    # -- 1. the child jurisdiction, with its own storage.
    new_jurisdiction = Jurisdiction(new_name, parent=old_jurisdiction)
    new_jurisdiction.vault.add_store(PersistentStore(new_name, "disk0"))

    # -- 2. transfer the hosts.
    moved_host_servers = []
    for host_loid in hosts_to_move:
        host_server = next(
            s for s in system.host_servers.values() if s.loid == host_loid
        )
        moved_host_servers.append(host_server)
        host_id = host_server.impl.host_id
        old_jurisdiction.remove_host(host_id, host_loid)
        new_jurisdiction.add_host(host_id, host_loid)
        old_impl.remove_host(host_loid)

    # -- 3. the new magistrate, started out-of-band like any magistrate.
    magistrate_class = system.standard_classes["StandardMagistrate"]
    new_impl = MagistrateImpl(new_jurisdiction)
    new_loid = magistrate_class.impl._allocate_instance_loid()
    new_server = start_out_of_band(
        system.services, new_loid, new_impl, moved_host_servers[0].impl.host_id,
        ComponentKind.MAGISTRATE, new_name, 128,
    )
    agent_binding = system.agents[site].binding()
    new_server.runtime.set_binding_agent(agent_binding)
    new_jurisdiction.magistrate = new_loid
    for host_server in moved_host_servers:
        new_impl.add_host(host_server.binding())
        host_server.impl.magistrate = new_loid
    system.jurisdictions[new_name] = new_jurisdiction
    system.magistrates[new_name] = new_server
    system.site_hosts[new_name] = [s.impl.host_id for s in moved_host_servers]

    # -- 4. register with LegionMagistrate's subclass (4.2.1) and hand over
    #    the objects living on the transferred hosts.
    fut = system.kernel.spawn(
        new_server.runtime.invoke(
            magistrate_class.loid, "RegisterOutOfBand", new_server.binding()
        ),
        name=f"register-split-{new_name}",
    )
    system.kernel.run_until_complete(fut)

    # Objects currently Active on the transferred hosts follow the hosts
    # (only an Active record names a Host Object); Inert objects stay in
    # the old vault (their OPRs already live there).
    moved_hosts = {s.loid for s in moved_host_servers}
    to_move = [
        record.loid
        for record in old_impl.managed.values()
        if record.host in moved_hosts
    ]
    for loid in to_move:
        system.call(old_magistrate_server.loid, "Move", loid, new_loid)

    # New creations may now be placed on the new magistrate too.
    for role in ("LegionObject", "LegionClass"):
        system.core[role].impl.add_candidate_magistrate(new_loid)
    return new_server
