"""Latency classification for the simulated wide-area fabric.

The paper's scalability argument (section 5.2) rests on the assumption that
"most accesses will be local ... within the same organization, for instance
within a department or university campus".  To measure that, the network
needs a notion of *where* endpoints live.  Hosts are assigned to *sites*
(the paper's organizations); messages are then classed as

* ``SAME_HOST``  -- caller and callee on one machine,
* ``SAME_SITE``  -- different machines, one campus (LAN),
* ``WIDE_AREA``  -- across sites (WAN),

and each class has a base latency.  The defaults are
order-of-magnitude figures for mid-1990s infrastructure (the NII of the
paper); absolute values don't matter for the reproduced claims, only the
local ≪ wide-area ordering does.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.errors import NetworkError


class LinkClass(enum.Enum):
    """Coarse locality class of a (source host, destination host) pair."""

    SAME_HOST = "same-host"
    SAME_SITE = "same-site"
    WIDE_AREA = "wide-area"

    # Members are singletons compared by identity, and every message keys
    # three dicts by its class: hash them in C rather than through
    # ``Enum.__hash__``'s Python frame (whose string hash is randomised
    # per process anyway, so no ordering is given up).
    __hash__ = object.__hash__


#: Default one-way base latencies, in simulated milliseconds.
DEFAULT_BASE_LATENCY: Dict[LinkClass, float] = {
    LinkClass.SAME_HOST: 0.05,
    LinkClass.SAME_SITE: 1.0,
    LinkClass.WIDE_AREA: 40.0,
}


@dataclass
class LatencyModel:
    """Maps host pairs to one-way message latencies.

    Parameters
    ----------
    base:
        Per-class one-way base latency (milliseconds of simulated time):
        one finite, non-negative figure for every :class:`LinkClass`.
        Checked here, once: ``Network.send`` schedules deliveries with
        it unchecked.
    """

    base: Dict[LinkClass, float] = field(
        default_factory=lambda: dict(DEFAULT_BASE_LATENCY)
    )
    _site_of: Dict[int, str] = field(default_factory=dict)
    #: Memo of :meth:`classify` per (src host, dst host): the answer is
    #: constant between ``assign_host`` calls, and ``Network.send`` asks
    #: once per message.  Every caller of ``classify`` fills it (replica
    #: selection and trace labels too), so it is bounded by hosts squared.
    links: Dict[Tuple[int, int], LinkClass] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        for link in LinkClass:
            if link not in self.base:
                raise NetworkError(f"LatencyModel.base has no latency for {link}")
            latency = self.base[link]
            if not (math.isfinite(latency) and latency >= 0):
                raise NetworkError(
                    f"LatencyModel.base[{link}] is {latency!r}; a one-way "
                    "latency must be finite and non-negative"
                )

    def assign_host(self, host: int, site: str) -> None:
        """Record that ``host`` (a 32-bit host id) belongs to ``site``."""
        self._site_of[host] = site
        self.links.clear()

    def site_of(self, host: int) -> Optional[str]:
        """The site a host was assigned to, or None if unassigned."""
        return self._site_of.get(host)

    def classify(self, src_host: int, dst_host: int) -> LinkClass:
        """The locality class of a (src, dst) host pair.

        Unassigned hosts are conservatively treated as wide-area peers
        (they are "somewhere on the NII").  The one definition of the
        rule; each answer is remembered in :attr:`links`.
        """
        if src_host == dst_host:
            link = LinkClass.SAME_HOST
        else:
            src_site = self._site_of.get(src_host)
            if src_site is not None and src_site == self._site_of.get(dst_host):
                link = LinkClass.SAME_SITE
            else:
                link = LinkClass.WIDE_AREA
        self.links[src_host, dst_host] = link
        return link

    @classmethod
    def uniform(cls, latency: float) -> "LatencyModel":
        """A degenerate model where every link has the same latency.

        Useful in unit tests where locality is irrelevant.
        """
        return cls(base={c: latency for c in LinkClass})
