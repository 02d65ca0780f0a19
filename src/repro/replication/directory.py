"""The replication directory: the subsystem's one ambient handle.

``enable_replication(system)`` builds the two-tier catalog fabric the EU
DataGrid replica-location service popularised -- one ReplicaCatalog
object per jurisdiction (site) plus a single lightweight
GlobalReplicaIndex -- and installs a :class:`ReplicaDirectory` on
``SystemServices.replication``.  The directory itself is pure plumbing,
like SystemServices: it remembers where the catalogs live.  All *state*
lives in the catalog and index objects, which are ordinary
application-level Legion objects reached through the message plane.

Runtimes read the directory where they need it -- when a call reaches a
multi-element FIRST address -- so installing it takes effect on the next
such call and costs single-element calls nothing.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.net.latency import LatencyModel
from repro.replication.selection import LocalitySelector


class ReplicaDirectory:
    """Where the per-site catalogs and the global index live.

    Stored on ``services.replication``.  Holds no replica state -- only
    bindings of the catalog fabric.
    """

    def __init__(self) -> None:
        #: site name -> Binding of that site's ReplicaCatalog.
        self.catalogs: Dict[str, Any] = {}
        #: Binding of the GlobalReplicaIndex (cross-jurisdiction lookup).
        self.index: Any = None
        self._selector: Optional[LocalitySelector] = None

    def nearest_first(self, latency: LatencyModel, src_host: int, elements: tuple) -> tuple:
        """The order a caller on ``src_host`` should try a replica group in:
        nearest-first by link class.  Every runtime shares the one
        (memoised) selector."""
        if self._selector is None or self._selector.latency is not latency:
            self._selector = LocalitySelector(latency)
        return self._selector.order(src_host, elements)

    def register_catalog(self, site: str, binding: Any) -> None:
        """Record ``site``'s catalog binding."""
        self.catalogs[site] = binding

    def catalog_element(self, site: Optional[str]):
        """The primary address element of ``site``'s catalog, or any
        catalog's when the site is unknown/unassigned (conservative:
        the news still lands somewhere and reaches the global index)."""
        binding = self.catalogs.get(site) if site is not None else None
        if binding is None:
            for name in sorted(self.catalogs):
                binding = self.catalogs[name]
                break
        if binding is None:
            return None
        return binding.address.primary()

    def sites(self) -> List[str]:
        """Catalog sites, sorted (the repair service's sweep order)."""
        return sorted(self.catalogs)


def enable_replication(system):
    """Build the catalog fabric and install the directory on ``system``.

    Creates a ReplicaCatalog instance per site (pinned to the site's
    first host, alongside the magistrate -- catalog survivability
    matches the site-infrastructure convention of E13) and one
    GlobalReplicaIndex on the first site.  Idempotent: returns the
    existing directory if replication is already on.

    Must run *before* ``CreateReplicated`` calls whose groups should be
    tracked: class objects gossip placement news only once the
    directory is installed.
    """
    from repro.replication.catalog import GlobalReplicaIndexImpl, ReplicaCatalogImpl

    existing = system.services.replication
    if existing is not None:
        return existing

    directory = ReplicaDirectory()
    sites = [spec.name for spec in system.sites]
    first = sites[0]

    def _site_hints(site: str) -> Dict[str, Any]:
        return {
            "magistrate": system.magistrates[site].loid,
            "host": system.host_servers[system.site_hosts[site][0]].loid,
        }

    index_cls = system.create_class(
        "GlobalReplicaIndex", factory=GlobalReplicaIndexImpl, **_site_hints(first)
    )
    index = system.create_instance(index_cls.loid, **_site_hints(first))
    directory.index = index

    catalog_cls = system.create_class(
        "ReplicaCatalog", factory=ReplicaCatalogImpl, **_site_hints(first)
    )
    index_element = index.address.primary()
    for site in sites:
        binding = system.create_instance(
            catalog_cls.loid, init={"site": site}, **_site_hints(site)
        )
        system.call(binding.loid, "SetIndex", index_element)
        directory.register_catalog(site, binding)

    system.services.replication = directory
    return directory
