"""Method invocation as data.

"Legion is an object-oriented system comprised of independent, address
space disjoint objects that communicate with one another via method
invocation.  Method calls are non-blocking and may be accepted in any
order by the called object." (paper section 2)

A :class:`MethodInvocation` is the payload of a REQUEST message: method
name, positional arguments, and the (RA, SA, CA) call environment.  A
:class:`MethodResult` is the payload of the REPLY: either a value or a
marshalled error.  Errors cross the network as (type-name, message) pairs
and are reconstructed as the closest :class:`~repro.errors.RemoteError`
subclass at the caller.

Every round trip builds one of each, so both are named tuples: immutable
(one invocation is shared by every leg of an ALL / K-of-N fan-out) and
built by a single ``tuple.__new__`` rather than one
``object.__setattr__`` per field, as a frozen dataclass would.  The call
path calls ``tuple.__new__(MethodResult, (value, "", "", None))`` itself,
every field spelled out, to skip the named tuple's own ``__new__`` frame.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

from repro import errors
from repro.naming.loid import LOID
from repro.security.environment import CallEnvironment

#: Error type names that re-raise as themselves at the caller.
_REMOTE_ERROR_TYPES = {
    "MethodNotFound": errors.MethodNotFound,
    "SecurityDenied": errors.SecurityDenied,
    "RequestRefused": errors.RequestRefused,
    "ObjectDeleted": errors.ObjectDeleted,
    "BindingNotFound": errors.BindingNotFound,
    "UnknownObject": errors.UnknownObject,
    "AbstractClassError": errors.AbstractClassError,
    "PrivateClassError": errors.PrivateClassError,
    "FixedClassError": errors.FixedClassError,
    "NoCapacity": errors.NoCapacity,
    "HostError": errors.HostError,
    "StorageError": errors.StorageError,
    "LifecycleError": errors.LifecycleError,
    "SchedulingError": errors.SchedulingError,
    "InterfaceError": errors.InterfaceError,
    "ObjectModelError": errors.ObjectModelError,
    "ReplicationError": errors.ReplicationError,
    "ContextError": errors.ContextError,
    "InvalidArgument": errors.InvalidArgument,
}


class MethodInvocation(NamedTuple):
    """One non-blocking method call travelling to a target object."""

    target: LOID
    method: str
    args: Tuple[Any, ...]
    env: CallEnvironment
    #: Admission-control metadata (repro.flow).  ``priority`` breaks ties
    #: when a bounded server queue must shed (higher wins); ``deadline``
    #: is the caller's absolute simulated-time deadline so a server can
    #: shed requests that are already hopeless instead of serving corpses.
    #: Both stay at their defaults when no FlowConfig is installed.
    priority: int = 0
    deadline: Optional[float] = None

    @property
    def arity(self) -> int:
        """Number of arguments; dispatch is by (method, arity)."""
        return len(self.args)

    def __str__(self) -> str:
        return f"{self.target}.{self.method}/{self.arity}"


class MethodResult(NamedTuple):
    """The reply to an invocation: a value, or a marshalled error.

    A success is ``MethodResult(value)``; a failure is
    :meth:`failure` of the exception the remote method raised.
    """

    value: Any = None
    error_type: str = ""
    error_message: str = ""
    #: Structured side-channel for errors whose constructor needs more
    #: than a message: today only Overloaded's ``retry_after`` hint.
    error_detail: Any = None

    @property
    def ok(self) -> bool:
        """True when the invocation succeeded."""
        return not self.error_type

    @classmethod
    def failure(cls, exc: BaseException) -> "MethodResult":
        """Marshal an exception raised by the remote method."""
        return cls(None, type(exc).__name__, str(exc), getattr(exc, "retry_after", None))

    def unwrap(self) -> Any:
        """Return the value or raise the reconstructed remote error."""
        if not self.error_type:
            return self.value
        if self.error_type == "Overloaded":
            raise errors.Overloaded(
                self.error_message, retry_after=float(self.error_detail or 0.0)
            )
        exc_type = _REMOTE_ERROR_TYPES.get(self.error_type)
        if exc_type is not None:
            raise exc_type(self.error_message)
        raise errors.InvocationFailed(
            f"{self.error_type}: {self.error_message}", remote_type=self.error_type
        )


class InvocationContext:
    """Server-side context handed to method implementations.

    Methods that declare a keyword-only ``ctx`` parameter receive one of
    these; it carries the call environment (for policy decisions and for
    forwarding nested calls with a correct CA) plus the identities involved.
    """

    __slots__ = ("env", "target", "method")

    def __init__(self, env: CallEnvironment, target: LOID, method: str) -> None:
        self.env = env
        self.target = target
        self.method = method

    def nested_env(self, self_loid: LOID) -> CallEnvironment:
        """Environment for calls this method makes on other objects."""
        return self.env.forwarded_by(self_loid)
