"""System-wide contracts, checked at quiescence by any test or experiment arm.

Each checker takes a drained :class:`~repro.system.legion.LegionSystem` and
returns a list of violations (empty when the contract holds), so a test
can assert on the list and print every problem at once.
"""

from collections import Counter
from typing import List

from repro.jurisdiction.magistrate import ObjectState


def process_violations(system) -> List[str]:
    """One object, one process -- the one its magistrate records.

    Every live process must be the one a magistrate's record names: an
    ACTIVE record's host and address, or a replica of a GROUP.  A process
    no record names is an orphan (state no binding reaches); any other
    object with two processes is a fork (state split in two).  Either
    loses state.
    """
    recorded, groups = set(), set()
    for magistrate in system.magistrates.values():
        for record in magistrate.impl.managed.values():
            key = record.loid.identity
            if record.state is ObjectState.ACTIVE:
                recorded.add((key, record.host, record.address))
            elif record.state is ObjectState.GROUP:
                groups.add(key)
                recorded.update((key, host, address) for host, address in record.replicas)
    problems = []
    running = Counter()
    for host in system.host_servers.values():
        for entry in host.impl.processes.running():
            running[entry.loid] += 1
            if (entry.loid.identity, host.loid, entry.server.address) not in recorded:
                problems.append(
                    f"{entry.loid} runs on {host.loid} at {entry.server.address}, "
                    "which no magistrate records"
                )
    problems += [
        f"{loid} runs {n} processes"
        for loid, n in running.items()
        if n > 1 and loid.identity not in groups
    ]
    return problems


def live_impl(system, loid):
    """The implementation of the live process serving ``loid``."""
    for server in system.host_servers.values():
        entry = server.impl.processes.find(loid)
        if entry is not None and not entry.crashed:
            return entry.server.impl
    raise AssertionError(f"{loid} is not running on any host")


def clone_pool_violations(impl) -> List[str]:
    """A class object routes new work only at clones that exist.

    Every member of the clone pool must be a live (not deleted) row of the
    class's own table, and the round-robin index must point inside the
    pool (0 when it is empty); otherwise delegated Create()/Derive()
    requests land on a deleted object.
    """
    problems = [
        f"clone {clone.loid} is in the pool but is no live row of {impl.class_name}"
        for clone in impl.clones
        if clone.loid not in impl.table
    ]
    size = len(impl.clones)
    if not (0 <= impl._clone_rr < size or impl._clone_rr == size == 0):
        problems.append(f"_clone_rr {impl._clone_rr} lies outside a pool of {size}")
    return problems
