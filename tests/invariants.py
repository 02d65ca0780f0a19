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
