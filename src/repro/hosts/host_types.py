"""The Fig. 8 host hierarchy: platform-flavoured Host Object classes.

"UnixHost and SPMDHost are derived directly from LegionHost.  UnixSMMP is
derived from UnixHost, and CM-5 and CrayT3D are derived from SPMDHost."

The flavours differ in how they model capacity:

* **UnixHost** -- a workstation: modest process slots, one node.
* **UnixSMMP** -- a shared-memory multiprocessor (the paper's SGI Power
  Challenge): many slots, per-processor node numbers in Object Addresses.
* **SPMDHost** -- a parallel machine running single-program multiple-data
  jobs: activating an object claims a *partition* of nodes, so slot
  accounting is in nodes, not processes.
* **CM5Host / CrayT3DHost** -- concrete SPMD machines with their
  characteristic partition granularities.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import NoCapacity
from repro.hosts.host_object import HostObjectImpl
from repro.persistence.opr import OPRecord


class UnixHostImpl(HostObjectImpl):
    """A Unix workstation (e.g. the paper's Sun workstation)."""

    platform = "unix"

    def __init__(self, host_id: int, max_processes: Optional[int] = 64) -> None:
        super().__init__(
            host_id=host_id,
            max_processes=max_processes,
            cpu_capacity=1.0,
            node_count=1,
        )


class UnixSMMPHostImpl(UnixHostImpl):
    """A shared-memory multiprocessor running Unix (SGI Power Challenge).

    Activations are spread over processors round-robin; the processor
    index becomes the 32-bit node number of the Object Address Element
    (section 3.4: "on multiprocessors, a 32 bit platform-specific internal
    node number may be used to distinguish each particular processor").
    """

    platform = "unix-smmp"

    def __init__(self, host_id: int, processors: int = 8, max_processes: Optional[int] = None) -> None:
        super().__init__(
            host_id=host_id,
            max_processes=max_processes if max_processes is not None else processors * 32,
        )
        self.cpu_capacity = float(processors)
        self.node_count = processors
        self._next_processor = 0

    def next_node(self) -> int:
        """Round-robin processor assignment for new activations."""
        node = self._next_processor
        self._next_processor = (self._next_processor + 1) % self.node_count
        return node

    def assign_node(self) -> int:
        """Activations carry the processor number in their addresses."""
        return self.next_node()


class SPMDHostImpl(HostObjectImpl):
    """A distributed-memory parallel machine running SPMD jobs.

    Each activation claims ``partition_nodes`` nodes (overridable per-OPR
    via the ``nodes`` annotation); capacity is the node pool.
    """

    platform = "spmd"

    def __init__(self, host_id: int, total_nodes: int = 32, partition_nodes: int = 8) -> None:
        super().__init__(host_id=host_id, max_processes=None, node_count=total_nodes)
        self.total_nodes = total_nodes
        self.partition_nodes = partition_nodes
        self.nodes_in_use = 0

    def _partition_size(self, opr: OPRecord) -> int:
        return int(opr.annotations.get("nodes", self.partition_nodes))

    def admit(self, opr: OPRecord) -> bool:
        """Admit only if a partition of the requested size is free."""
        return self.nodes_in_use + self._partition_size(opr) <= self.total_nodes

    def activate(self, opr: OPRecord, *, ctx=None):
        """Claim the partition, then start the object as usual."""
        size = self._partition_size(opr)
        if self.nodes_in_use + size > self.total_nodes:
            raise NoCapacity(
                f"SPMD host {self.host_id}: {size} nodes requested, "
                f"{self.total_nodes - self.nodes_in_use} free"
            )
        address = super().activate(opr, ctx=ctx)
        self.nodes_in_use += size
        self.processes.set_cpu_share(self.processes.get(opr.loid), float(size))
        return address

    def _release(self, loid) -> None:
        entry = self.processes.find(loid)
        if entry is not None:
            self.nodes_in_use = max(0, self.nodes_in_use - int(entry.cpu_share))

    def deactivate(self, loid):
        self._release(loid)
        return super().deactivate(loid)

    def kill_object(self, loid) -> None:
        self._release(loid)
        super().kill_object(loid)


class CM5HostImpl(SPMDHostImpl):
    """A Thinking Machines CM-5: power-of-two partitions, 32-node default."""

    platform = "cm-5"

    def __init__(self, host_id: int, total_nodes: int = 512) -> None:
        super().__init__(host_id=host_id, total_nodes=total_nodes, partition_nodes=32)

    def _partition_size(self, opr: OPRecord) -> int:
        requested = super()._partition_size(opr)
        size = 32  # CM-5 partitions come in powers of two, minimum 32
        while size < requested:
            size *= 2
        return size


class CrayT3DHostImpl(SPMDHostImpl):
    """A Cray T3D: PE pairs, small default partitions."""

    platform = "cray-t3d"

    def __init__(self, host_id: int, total_nodes: int = 256) -> None:
        super().__init__(host_id=host_id, total_nodes=total_nodes, partition_nodes=2)

    def _partition_size(self, opr: OPRecord) -> int:
        requested = super()._partition_size(opr)
        return requested + (requested % 2)  # PEs are allocated in pairs
