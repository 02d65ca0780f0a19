"""LegionObjectImpl: the base of every object implementation.

Implements the paper's LegionObject abstract class (section 2.1.3):
"LegionObject provides the full set of object-mandatory member functions
... all Legion objects are instances of classes that are eventually derived
from the class LegionObject, and thus they inherit all of the member
functions defined in LegionObject."

The object-mandatory member functions are MayI(), Iam(), Ping(),
GetInterface(), SaveState(), and RestoreState() (sections 2.1, 2.4, 3.1.1).

Exporting a method
------------------
Python methods become Legion member functions via the
:func:`legion_method` decorator, which attaches an IDL signature::

    class Counter(LegionObjectImpl):
        @legion_method("int Increment(int)")
        def increment(self, amount, *, ctx=None):
            self.value += amount
            return self.value

Dispatch is by (method name, arity).  A method may be a plain function
(returns its value) or a generator (it is run as a simulation process and
may ``yield`` futures -- this is how one Legion method awaits another
object's method without blocking its server).  Declaring a keyword-only
``ctx`` parameter opts in to receiving the :class:`InvocationContext`.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.idl.interface import Interface
from repro.idl.parser import parse_signature
from repro.idl.signature import MethodSignature
from repro.core.method import InvocationContext
from repro.naming.loid import LOID
from repro.security.environment import CallEnvironment
from repro.security.identity import Credentials
from repro.security.mayi import AllowAll, MayIPolicy


def legion_method(idl: str) -> Callable[[Callable], Callable]:
    """Export the decorated Python method with the given IDL signature."""
    signature = parse_signature(idl)

    def decorate(fn: Callable) -> Callable:
        fn._legion_signature = signature  # type: ignore[attr-defined]
        return fn

    return decorate


class _Export:
    """One exported method: signature + callable + ctx-awareness."""

    __slots__ = ("signature", "fn", "wants_ctx")

    def __init__(self, signature: MethodSignature, fn: Callable) -> None:
        self.signature = signature
        self.fn = fn
        params = inspect.signature(fn).parameters
        self.wants_ctx = "ctx" in params and params["ctx"].kind is inspect.Parameter.KEYWORD_ONLY


def _collect_exports(cls: type) -> Dict[Tuple[str, int], _Export]:
    """Walk the MRO gathering exported methods; subclasses override.

    A subclass may override an exported method *without* repeating the
    decorator: the override inherits the ancestor's signature (tracked by
    Python attribute name), exactly like ordinary Python overriding.
    """
    exports: Dict[Tuple[str, int], _Export] = {}
    signature_of_attr: Dict[str, MethodSignature] = {}
    for klass in reversed(cls.__mro__):
        for attr_name, attr in vars(klass).items():
            signature = getattr(attr, "_legion_signature", None)
            if signature is None:
                signature = signature_of_attr.get(attr_name)
                if signature is None or not callable(attr):
                    continue
            else:
                signature_of_attr[attr_name] = signature
            key = (signature.name, signature.arity)
            exports[key] = _Export(signature, attr)
    return exports


class LegionObjectImpl:
    """Base implementation class; see module docstring.

    Lifecycle hooks (all optional to override):

    * :meth:`save_state` / :meth:`restore_state` -- the mechanism
      magistrates use to build and interpret Object Persistent
      Representations (section 3.1.1).  The default (de)serialises the
      attribute dict returned by :meth:`persistent_attributes`.
    * :meth:`on_activated` -- called once the object is live on a host and
      its runtime is wired.
    * :meth:`on_deactivating` -- called just before the endpoint is torn
      down.
    * :meth:`handle_event` -- receives one-way EVENT messages.
    """

    #: Set by the ObjectServer when the object is activated.
    loid: LOID = None  # type: ignore[assignment]
    runtime: Any = None
    services: Any = None

    #: The object's MayI() policy; AllowAll is the paper's empty default.
    mayi_policy: MayIPolicy = AllowAll()

    _exports_cache: Dict[type, Dict[Tuple[str, int], _Export]] = {}

    # -- export machinery --------------------------------------------------------

    @classmethod
    def exports(cls) -> Dict[Tuple[str, int], _Export]:
        """The (name, arity) → export map for this implementation class."""
        cached = LegionObjectImpl._exports_cache.get(cls)
        if cached is None:
            cached = _collect_exports(cls)
            LegionObjectImpl._exports_cache[cls] = cached
        return cached

    @classmethod
    def exported_interface(cls, name: str = "") -> Interface:
        """The Interface implied by this class's exported methods."""
        return Interface(
            (e.signature for e in cls.exports().values()),
            name=name or cls.__name__,
        )

    def find_export(self, method: str, arity: int) -> Optional[_Export]:
        """The export handling (method, arity), or None.

        Runs on every dispatch, so it probes the per-class cache itself;
        :meth:`exports` is only the fill path, taken once per class.
        """
        exports = LegionObjectImpl._exports_cache.get(type(self))
        if exports is None:
            exports = type(self).exports()
        return exports.get((method, arity))

    # -- security hooks -----------------------------------------------------------

    @legion_method("bool MayI(string)")
    def mayi_method(self, method_name: str, *, ctx: Optional[InvocationContext] = None) -> bool:
        """Wire-level MayI(): would ``method_name`` be admitted for the
        caller's environment?  Lets callers probe policy without tripping it.
        It asks the same ``mayi_policy`` the dispatch loop asks."""
        env = ctx.env if ctx is not None else self.own_env()
        return self.mayi_policy.may_i(method_name, env)

    @legion_method("credentials Iam(int)")
    def iam(self, challenge: int) -> Credentials:
        """Prove identity by binding our LOID to the challenge nonce."""
        secret = self.services.secret if self.services is not None else 0
        return Credentials.respond(self.loid, challenge, secret)

    # -- object-mandatory member functions ------------------------------------------

    @legion_method("string Ping()")
    def ping(self) -> str:
        """Liveness probe; also handy as a minimal round-trip for tests."""
        return "pong"

    @legion_method("interface GetInterface()")
    def get_interface(self) -> Interface:
        """The complete set of method signatures this object exports."""
        return type(self).exported_interface()

    @legion_method("int PendingDispatches()")
    def pending_dispatches(self) -> int:
        """Requests dispatched but not yet replied to, excluding this probe.

        The autoscaler's retirement drain polls this to know when a clone
        has finished its in-flight work (the probe itself is in flight
        while we answer, hence the ``- 1``).
        """
        # The server hosting us owns the handler at our element; we hold
        # no pointer back to it.
        runtime = self.runtime
        handler = runtime and self.services.network.handler_at(runtime.element)
        server = getattr(handler, "__self__", None)
        return max(0, getattr(server, "in_flight", 1) - 1)

    @legion_method("bytes SaveState()")
    def save_state_method(self) -> bytes:
        """Wire-level SaveState(): serialised persistent state."""
        return self.save_state()

    @legion_method("RestoreState(bytes)")
    def restore_state_method(self, blob: bytes) -> None:
        """Wire-level RestoreState()."""
        self.restore_state(blob)

    # -- persistence hooks ---------------------------------------------------------

    def persistent_attributes(self) -> List[str]:
        """Names of attributes captured by the default save_state().

        Subclasses list their durable fields here; the default is empty
        (a stateless object's OPR is just its factory reference).
        """
        return []

    def save_state(self) -> bytes:
        """Serialise durable state for an Object Persistent Representation."""
        import pickle

        state = {name: getattr(self, name) for name in self.persistent_attributes()}
        return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)

    def restore_state(self, blob: bytes) -> None:
        """Inverse of :meth:`save_state`."""
        import pickle

        state = pickle.loads(blob)
        for name, value in state.items():
            setattr(self, name, value)

    # -- lifecycle hooks -------------------------------------------------------------

    def on_activated(self) -> None:
        """Called once live: ``self.loid``, ``self.runtime`` are wired."""

    def on_deactivating(self) -> None:
        """Called before the endpoint is unregistered."""

    def handle_event(self, payload: Any, source: Any) -> None:
        """One-way EVENT messages land here (default: ignored)."""

    # -- conveniences -----------------------------------------------------------------

    def own_env(self) -> CallEnvironment:
        """A fresh call environment rooted at this object."""
        return CallEnvironment.originating(self.loid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.loid}>"


#: The object-mandatory interface (what LegionObject's instances export).
OBJECT_MANDATORY_INTERFACE = LegionObjectImpl.exported_interface("LegionObject")
