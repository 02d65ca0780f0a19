"""A remote pick costs the same at any number of sites.

``LocalityMix.choose`` is E9's and A4's per-call target draw.  Its remote
branch once rebuilt the list of every other site on each call, so a
call's cost grew with the system it measured.  The ratchet counts the
opcodes ``choose`` executes (``sys.settrace`` with ``f_trace_opcodes``,
frames of ``generators.py`` only, so the random source is not counted)
at 8 and at 1,024 sites, with a stub random source that always goes
remote: the counts must be equal.  Opcode counts differ between
interpreters, but their equality does not, so this runs everywhere.
"""

import sys

from repro.workloads import generators
from repro.workloads.generators import LocalityMix


class AlwaysRemote:
    """A random source whose every draw sends ``choose`` off-site."""

    def random(self) -> float:
        return 1.0

    def randrange(self, n: int) -> int:
        return n - 1


def opcodes_per_choose(sites: int, calls: int = 20) -> float:
    mix = LocalityMix(
        {f"site{i:04d}": [f"obj{i}.{j}" for j in range(3)] for i in range(sites)},
        local_fraction=0.9,
        rng=AlwaysRemote(),
    )
    count = 0

    def local(frame, event, _arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def trace(frame, _event, _arg):
        if frame.f_code.co_filename != generators.__file__:
            return None
        frame.f_trace_opcodes = True
        return local

    old = sys.gettrace()
    sys.settrace(trace)
    try:
        for i in range(calls):
            mix.choose(f"site{i % sites:04d}")
    finally:
        sys.settrace(old)
    return count / calls


def test_a_remote_choice_costs_the_same_at_8_and_1024_sites():
    assert opcodes_per_choose(8) == opcodes_per_choose(1024)


def test_the_draws_are_the_ones_a_rebuilt_list_gave():
    """Draw ``i`` of a remote pick is the ``i``-th of every other site, in
    sorted order (of every site for a caller at none or at the only one),
    as when the list was rebuilt per call."""

    class Fixed(AlwaysRemote):
        def __init__(self, i):
            self.i = i

        def randrange(self, n):
            return min(self.i, n - 1)

    for sites in ([f"s{i}" for i in range(5)], ["only"]):
        for caller in sites + ["elsewhere"]:
            remote = [s for s in sorted(sites) if s != caller] or sorted(sites)
            for i in range(len(remote)):
                mix = LocalityMix({s: [s + "-obj"] for s in sites}, 0.0, Fixed(i))
                assert mix.choose(caller) == remote[i] + "-obj"
