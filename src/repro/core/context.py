"""SystemServices: the ambient substrate every Legion object shares.

A real Legion deployment gives every object access to the host OS's
communication facilities, the well-known core class objects, and the
implementation binaries on disk.  In the reproduction those ambient
facilities are gathered in one :class:`SystemServices` value that the
bootstrap procedure builds and threads through object activation:

* the simulation kernel and network,
* the system secret (public-key derivation, section 3.2),
* the implementation registry (name → factory; the simulated analogue of
  "an executable program, the name of an executable", section 4.2),
* well-known bindings of the core Abstract class objects (section 2.1.3),
* the metrics registry and relation graph used by experiments and tests.

SystemServices contains *no policy* and makes *no decisions*; it is pure
plumbing, so sharing one instance between all objects does not violate the
address-space-disjoint object model the simulation enforces at the message
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.errors import BootstrapError
from repro.core.relations import RelationGraph
from repro.metrics.counters import MetricsRegistry
from repro.naming.loid import LOID
from repro.net.network import Network
from repro.simkernel.kernel import SimKernel
from repro.simkernel.rng import RngStreams

ImplFactory = Callable[..., Any]


class ImplRegistry:
    """Name → implementation-factory map (the 'executables on disk').

    An Object Persistent Representation names its implementation by
    factory name; activation looks the factory up here and calls it with
    the OPR's stored init arguments.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, ImplFactory] = {}

    def register(self, name: str, factory: ImplFactory, replace: bool = False) -> None:
        """Publish a factory under ``name``."""
        if name in self._factories and not replace:
            raise BootstrapError(f"implementation {name!r} already registered")
        self._factories[name] = factory

    def create(self, name: str, /, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the implementation registered under ``name``."""
        try:
            factory = self._factories[name]
        except KeyError:
            raise BootstrapError(f"no implementation registered as {name!r}") from None
        return factory(*args, **kwargs)

    def get(self, name: str) -> Optional[ImplFactory]:
        """The factory registered under ``name``, or None."""
        return self._factories.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


@dataclass
class SystemServices:
    """The shared substrate bundle (see module docstring)."""

    kernel: SimKernel
    network: Network
    rng: RngStreams
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    secret: int = 0x1E610
    impls: ImplRegistry = field(default_factory=ImplRegistry)
    #: Bindings of the well-known core objects by role name
    #: ("LegionClass", "LegionHost", ...); seeded into every new object's
    #: binding cache at activation (the simulated analogue of compiled-in
    #: addresses of well-known services).
    core_bindings: Dict[str, Any] = field(default_factory=dict)
    #: ``core_bindings`` keyed by LOID identity, the copy every new
    #: runtime seeds from; bootstrap sets it once the core table is
    #: complete.
    core_seed: Dict[Any, Any] = field(
        init=False, repr=False, compare=False, default_factory=dict
    )
    #: The Binding Agent newly activated objects are configured with, unless
    #: their creator overrides it.  "The persistent state of each Legion
    #: object contains the Object Address of its Binding Agent" (3.6).
    default_binding_agent: Any = None
    #: The Fig. 2 relation graph (is-a, kind-of, inherits-from).
    relations: RelationGraph = field(default_factory=RelationGraph)
    #: The causal-tracing recorder (:class:`repro.trace.SpanRecorder`), or
    #: ``None`` when tracing is off.  Every instrumented hot path guards on
    #: ``tracer is not None`` -- the zero-overhead no-op mode -- so
    #: installing a recorder is the *only* cost switch.
    tracer: Any = None
    #: The chaos subsystem's :class:`repro.faults.FaultLog`, or ``None``
    #: outside fault experiments.  Recovery paths append *observed*
    #: incidents here so injected-vs-observed reconciliation works.
    fault_log: Any = None
    #: The flow-control configuration (:class:`repro.flow.FlowConfig`), or
    #: ``None`` for the historical unthrottled behaviour.  When set, new
    #: ObjectServers gain bounded admission queues and runtimes gain
    #: credit windows.  Like ``tracer``, every hot path guards on
    #: ``flow is None`` so the default costs nothing.
    flow: Any = None
    #: The geo-replication directory (:class:`repro.replication.ReplicaDirectory`),
    #: or ``None`` when the data plane is off.  When set, a call on a
    #: multi-element FIRST address tries the group nearest-first by link
    #: class and class objects gossip replica placement news to the
    #: per-site ReplicaCatalogs.  Installed once by
    #: ``repro.replication.enable_replication``.
    replication: Any = None

    def well_known_loid(self, role: str) -> LOID:
        """The LOID of a core object by role; raises if not bootstrapped."""
        try:
            return self.core_bindings[role].loid
        except KeyError:
            raise BootstrapError(
                f"core object {role!r} not registered; did bootstrap run?"
            ) from None
