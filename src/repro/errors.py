"""Exception hierarchy for the Legion reproduction.

Every error raised by the library derives from :class:`LegionError`, so
applications can catch the whole family with a single ``except`` clause.
Errors that travel across the simulated network (i.e. that a remote method
raises and that must be re-raised at the caller) are subclasses of
:class:`RemoteError` and carry enough information to be reconstructed on the
caller's side.
"""

from __future__ import annotations


class LegionError(Exception):
    """Base class for all errors raised by the Legion reproduction."""


class InvalidArgument(LegionError, ValueError):
    """A public entry point was given a value outside its legal range.

    Also a ``ValueError``, the exception Python code raises for a bad
    value, so callers that catch that keep working."""


# ---------------------------------------------------------------------------
# Simulation-kernel errors
# ---------------------------------------------------------------------------


class SimulationError(LegionError):
    """Base class for errors raised by the discrete-event kernel."""


class SimulationDeadlock(SimulationError):
    """``run()`` was asked to reach a condition but the event queue drained."""


class ProcessKilled(BaseException):
    """Raised inside a simulation process that was killed externally.

    A ``BaseException``, as ``asyncio.CancelledError`` is, so that no
    ``except LegionError`` or ``except Exception`` can swallow a kill.
    """


class FutureError(SimulationError):
    """Misuse of a :class:`~repro.simkernel.futures.SimFuture`."""


# ---------------------------------------------------------------------------
# Network errors
# ---------------------------------------------------------------------------


class NetworkError(LegionError):
    """Base class for errors in the simulated network substrate."""


class DeliveryFailure(NetworkError):
    """A message could not be delivered to its destination endpoint.

    The Legion communication layer uses this to detect stale bindings
    (paper section 4.1.4): an Object Address that no longer has a registered
    endpoint produces a :class:`DeliveryFailure` back at the sender.
    """

    def __init__(self, message: str, *, element=None) -> None:
        super().__init__(message)
        self.element = element


class AddressError(NetworkError):
    """Malformed Object Address or Object Address Element."""


class PartitionedError(DeliveryFailure):
    """The destination is currently unreachable due to a network partition."""


class InvocationTimeout(DeliveryFailure):
    """No reply arrived within the caller's deadline.

    Raised locally by the communication layer when a message (or its
    reply) was silently lost; treated like a stale binding: invalidate
    and refresh.
    """


# ---------------------------------------------------------------------------
# Naming errors
# ---------------------------------------------------------------------------


class NamingError(LegionError):
    """Base class for naming-subsystem errors."""


class InvalidLOID(NamingError):
    """A LOID field is out of range or otherwise malformed."""


class BindingNotFound(NamingError):
    """No binding could be produced for a LOID by any means.

    Raised when the full resolution procedure of paper section 4.1 --
    local cache, Binding Agent, class object, magistrate activation --
    fails to yield an Object Address (e.g. the object was deleted).
    """

    def __init__(self, message: str, *, loid=None) -> None:
        super().__init__(message)
        self.loid = loid


class ContextError(NamingError):
    """A string name could not be resolved by a Context."""


# ---------------------------------------------------------------------------
# Remote (cross-object) errors -- marshalled across the simulated network
# ---------------------------------------------------------------------------


class RemoteError(LegionError):
    """Base class for errors that a remote method raises at the caller."""


class MethodNotFound(RemoteError):
    """The target object's interface does not export the invoked method."""


class SecurityDenied(RemoteError):
    """A MayI() check rejected the invocation (paper section 2.4)."""


class RequestRefused(RemoteError):
    """A Magistrate or Host Object declined to service a request.

    Member function calls on Magistrates are requests, not commands
    (paper section 3.8); this is the refusal outcome.
    """


class ObjectDeleted(RemoteError):
    """The target object was removed from the system via Delete()."""


class Overloaded(RemoteError):
    """Admission control shed the request before it was dispatched.

    A first-class flow-control outcome, not a fault: the target is alive
    and its binding is valid, but its bounded queue had no room (or the
    request's deadline was already hopeless).  Carries the server-computed
    ``retry_after`` pushback hint -- the simulated-ms delay after which a
    retry has a realistic chance of being admitted.  RetryPolicy honours
    the hint instead of treating the reply as a stale binding.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class InvocationFailed(RemoteError):
    """The remote method raised an unexpected exception."""

    def __init__(self, message: str, *, remote_type: str = "") -> None:
        super().__init__(message)
        self.remote_type = remote_type


# ---------------------------------------------------------------------------
# Object-model errors
# ---------------------------------------------------------------------------


class ObjectModelError(LegionError):
    """Base class for core object-model errors."""


class AbstractClassError(ObjectModelError):
    """Create() was invoked on an Abstract class (empty Create)."""


class PrivateClassError(ObjectModelError):
    """Derive() was invoked on a Private class (empty Derive)."""


class FixedClassError(ObjectModelError):
    """InheritFrom() was invoked on a Fixed class (empty InheritFrom)."""


class InterfaceError(ObjectModelError):
    """Interface-description problems: bad signature, merge conflict, etc."""


class LifecycleError(ObjectModelError):
    """Illegal object-state transition (e.g. deactivating an Inert object)."""


class UnknownObject(ObjectModelError):
    """A class object was asked about a LOID absent from its logical table."""


# ---------------------------------------------------------------------------
# Infrastructure errors
# ---------------------------------------------------------------------------


class HostError(LegionError):
    """Host Object problems: no capacity, unknown process, etc."""


class NoCapacity(HostError):
    """The host has no free process slot, or resource limits were exceeded."""


class StorageError(LegionError):
    """Persistent-store problems: unknown or foreign persistent address, no disks."""


class BootstrapError(LegionError):
    """The system bring-up procedure of paper section 4.2.1 failed."""


class SchedulingError(LegionError):
    """No placement satisfying the constraints could be found."""


class ReplicationError(LegionError):
    """Replica-group management failure."""
