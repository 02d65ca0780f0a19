"""Small application objects used by examples, tests, and experiments.

These are ordinary user-level Legion objects: they subclass
:class:`~repro.core.object_base.LegionObjectImpl`, export methods with
:func:`~repro.core.object_base.legion_method`, and declare persistent
attributes so deactivation/migration round-trips preserve their state.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.object_base import LegionObjectImpl, legion_method
from repro.simkernel.kernel import Timeout


class CounterImpl(LegionObjectImpl):
    """The canonical stateful object: an integer counter."""

    def __init__(self, start: int = 0) -> None:
        self.value = int(start)

    def persistent_attributes(self) -> List[str]:
        return ["value"]

    @legion_method("int Increment(int)")
    def increment(self, amount: int) -> int:
        """Add ``amount``; returns the new value."""
        self.value += int(amount)
        return self.value

    @legion_method("int Get()")
    def get(self) -> int:
        """The current value."""
        return self.value

    @legion_method("Reset()")
    def reset(self) -> None:
        """Back to zero."""
        self.value = 0


class KVStoreImpl(LegionObjectImpl):
    """A key-value store: the paper's "remote files and data" made easy
    to reach through the single persistent name space."""

    def __init__(self, initial: Optional[Dict[str, Any]] = None) -> None:
        self.data: Dict[str, Any] = dict(initial or {})

    def persistent_attributes(self) -> List[str]:
        return ["data"]

    @legion_method("Put(string, value)")
    def put(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key``."""
        self.data[key] = value

    @legion_method("value Get(string)")
    def get(self, key: str) -> Any:
        """The value under ``key`` (KeyError crosses as InvocationFailed)."""
        return self.data[key]

    @legion_method("bool Has(string)")
    def has(self, key: str) -> bool:
        """Whether ``key`` is present."""
        return key in self.data

    @legion_method("value Delete(string)")
    def delete(self, key: str) -> Any:
        """Remove and return the value under ``key``."""
        return self.data.pop(key)

    @legion_method("int Size()")
    def size(self) -> int:
        """Number of stored keys."""
        return len(self.data)

    @legion_method("list Keys()")
    def keys(self) -> List[str]:
        """All keys, sorted."""
        return sorted(self.data)


class WorkerImpl(LegionObjectImpl):
    """A compute worker: simulates work by sleeping simulated time.

    Models the paper's motivating wide-area computations: a caller farms
    Compute() calls out to workers placed across sites.
    """

    def __init__(self, speed: float = 1.0) -> None:
        #: Work units per simulated millisecond.
        self.speed = float(speed)
        self.completed = 0

    def persistent_attributes(self) -> List[str]:
        return ["speed", "completed"]

    @legion_method("float Compute(float)")
    def compute(self, work_units: float):
        """Burn ``work_units`` of simulated compute; returns elapsed ms."""
        duration = float(work_units) / self.speed
        yield Timeout(duration)
        self.completed += 1
        return duration

    @legion_method("int Completed()")
    def completed_count(self) -> int:
        """How many Compute() calls have finished."""
        return self.completed


class SerialServiceImpl(LegionObjectImpl):
    """A strictly serial server: one request at a time, FIFO.

    The overload workload (E15).  Each ``Work()`` call occupies the
    service for exactly ``service_time`` simulated ms, queued behind any
    call that arrived earlier -- so the object's sustainable throughput
    is precisely ``1 / service_time`` requests per ms, and offered load
    beyond that *must* queue, shed, or time out.  ``busy_until`` makes
    the FIFO discipline explicit without a lock: each arrival claims the
    next free slot and sleeps until its slot ends.
    """

    def __init__(self, service_time: float = 1.0) -> None:
        #: Simulated ms of exclusive service per Work() call.
        self.service_time = float(service_time)
        self.busy_until = 0.0
        self.completed = 0

    def persistent_attributes(self) -> List[str]:
        return ["service_time", "busy_until", "completed"]

    @legion_method("float Work()")
    def work(self):
        """Occupy the service for one slot; returns completion time."""
        now = self.services.kernel.now
        start = self.busy_until if self.busy_until > now else now
        self.busy_until = start + self.service_time
        yield Timeout(self.busy_until - now)
        self.completed += 1
        return self.busy_until


class ScenarioServiceImpl(LegionObjectImpl):
    """The scenario catalog's application object (``repro.scenarios``).

    One serial FIFO service (the :class:`SerialServiceImpl` discipline)
    exporting the four request kinds of the scenario language: cheap
    ``Read``, mutating ``Write``, unit-weighted ``Work`` (a batch job is
    just ``Work(units)``), and a ``Privileged`` operation meant to sit
    behind a MayI policy.  All state is persistent, so checkpoint /
    restart (SaveState/OPRs) and migration round-trips preserve the
    read/write ledger -- the scenario experiments verify exactly that.
    """

    def __init__(self, service_time: float = 1.0, read_time: float = 0.25) -> None:
        self.service_time = float(service_time)
        self.read_time = float(read_time)
        self.busy_until = 0.0
        self.data: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.worked = 0.0
        self.privileged_ops = 0

    def persistent_attributes(self) -> List[str]:
        return [
            "service_time",
            "read_time",
            "busy_until",
            "data",
            "reads",
            "writes",
            "worked",
            "privileged_ops",
        ]

    def _occupy(self, cost: float):
        """Claim the next free FIFO slot for ``cost`` simulated ms."""
        now = self.services.kernel.now
        start = self.busy_until if self.busy_until > now else now
        self.busy_until = start + cost
        yield Timeout(self.busy_until - now)

    @legion_method("int Read(int)")
    def read(self, key: int):
        """Serve one read of ``key``; returns its write count."""
        yield from self._occupy(self.read_time)
        self.reads += 1
        return self.data.get(int(key), 0)

    @legion_method("int Write(int)")
    def write(self, key: int):
        """Serve one write of ``key``; returns its new write count."""
        yield from self._occupy(self.service_time)
        value = self.data.get(int(key), 0) + 1
        self.data[int(key)] = value
        self.writes += 1
        return value

    @legion_method("float Work(float)")
    def work(self, units: float):
        """Occupy the service for ``units`` x service_time ms."""
        yield from self._occupy(float(units) * self.service_time)
        self.worked += float(units)
        return self.busy_until

    @legion_method("int Privileged()")
    def privileged(self):
        """The gated operation: only tenants a MayI policy admits."""
        yield from self._occupy(self.service_time)
        self.privileged_ops += 1
        return self.privileged_ops
