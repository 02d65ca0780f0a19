"""Geo-replication data plane (section 4.3 + the section-5 locality story).

"An LOID names Legion Object A1, which is implemented as a replicated
object consisting of four processes ... residing at four different
physical addresses."  The creation side lives on class objects
(:meth:`~repro.core.legion_class.ClassObjectImpl.create_replicated` /
``AddReplica``); this package is everything around it::

    enable_replication(system)          # catalogs + index + directory
      ├─ ReplicaCatalog (per site)      # LOID -> local replica set
      ├─ GlobalReplicaIndex (one)       # LOID -> {site: count}
      └─ services.replication           # ReplicaDirectory
    cls.CreateReplicated(n, ...)        # places replicas, gossips news
    runtime.invoke(loid, "Get", ...)    # locality-ordered FIRST reads
    ReplicaSession(runtime, binding, policy)   # primary-copy / read-any
    ReplicaRepairService(system)        # background regrow, yields to load

Modules: :mod:`selection` (locality ordering), :mod:`catalog`
(the two-tier replica-location fabric), :mod:`policy` (consistency
sessions), :mod:`store` (the versioned KV workload), :mod:`repair`
(probes, one-shot repair, background service), :mod:`directory` (the
ambient handle + ``enable_replication``).
"""

from repro.replication.catalog import GlobalReplicaIndexImpl, ReplicaCatalogImpl
from repro.replication.directory import ReplicaDirectory, enable_replication
from repro.replication.policy import ConsistencyPolicy, ReplicaSession
from repro.replication.repair import (
    REPAIR_RETRY_POLICY,
    ReplicaGroupStatus,
    ReplicaRepairService,
    probe_replicas,
    repair_replica_group,
)
from repro.replication.selection import LocalitySelector
from repro.replication.store import ReplicatedStoreImpl

__all__ = [
    "REPAIR_RETRY_POLICY",
    "ConsistencyPolicy",
    "GlobalReplicaIndexImpl",
    "LocalitySelector",
    "ReplicaCatalogImpl",
    "ReplicaDirectory",
    "ReplicaGroupStatus",
    "ReplicaRepairService",
    "ReplicaSession",
    "ReplicatedStoreImpl",
    "enable_replication",
    "probe_replicas",
    "repair_replica_group",
]
